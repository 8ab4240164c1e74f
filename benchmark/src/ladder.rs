//! The traced run: where the time goes, layer by layer.
//!
//! This PR may not instrument the program, so the trace is a *ladder*
//! of nested public entry points driven with the same payload —
//! standalone convolutions → `Network::forward` →
//! `InferenceSession::run` → `BatchingFrontend::infer` →
//! `Client::infer` — plus forward/backward/update/sgd for training. A
//! rung's self time is its median minus the rung beneath it. Rungs are
//! timed in interleaved round-robin rounds after one warm-up round
//! (per-rung median and MAD, the DESIGN.md §10.2 discipline), so slow
//! drift of a shared host lands on every rung alike. Every timed call
//! is a span `{name, start_ns, end_ns, parent, request_id}` kept in
//! memory and written to `benchmark/out/trace.json` at exit.
//!
//! The ladder is the same whichever `--workload` is named: per-layer
//! numbers are properties of the layers. End-to-end numbers never come
//! from here.

use crate::metrics::{self, layer_tag, CONV_PASSES, MINIBATCH, T};
use crate::stats;
use crate::workloads::{
    self, batches_from, daemon_closed_loop, gate, image_pool, lag_p99_ms, open_loop,
    resnet50_paper, resnet50_served, tiny_daemon, tiny_model, tiny_serve_config, TINY,
};
use crate::{Report, RunArgs};
use anatomy::conv::bwd::BwdKind;
use anatomy::conv::fuse::FuseCtx;
use anatomy::conv::reference::{conv_bwd_ref, conv_fwd_ref, conv_upd_ref};
use anatomy::conv::{ConvLayer, LayerOptions, PlanCache};
use anatomy::daemon::protocol::{encode_infer, parse_infer};
use anatomy::daemon::{Client, Daemon, DaemonConfig, ModelConfig};
use anatomy::gxm::data::SyntheticData;
use anatomy::gxm::{ExecMode, Network, NodeSpec};
use anatomy::machine::{predicted_efficiency, MachineModel, Pass};
use anatomy::parallel::ThreadPool;
use anatomy::serve::{BatchingFrontend, ServeConfig};
use anatomy::tensor::{
    BlockedActs, BlockedFilter, ConvShape, Kcrs, Nchw, Norms, VnniActs, VnniFilter, VLEN,
};
use anatomy::topologies::resnet50_table1;
use anatomy::{InferenceOutput, InferenceSession, Precision, TuneLevel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rounds every rung gets after the warm-up round, at least.
const MIN_ROUNDS: usize = 3;
/// Rounds after which a section stops even with budget left.
const MAX_ROUNDS: usize = 9;

struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    request_id: u64,
}

/// Spans and per-rung samples of the whole traced run.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    /// Milliseconds of every call of a rung outside the warm-up round.
    series: BTreeMap<String, Vec<f64>>,
    /// Calls made (the traced run's `attempted`).
    calls: u64,
}

impl Tracer {
    fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new(), series: BTreeMap::new(), calls: 0 }
    }

    /// Time `f` as one span of rung `name` in `round` (0 = warm-up,
    /// kept as a span but not as a sample). Returns the span's id.
    fn call<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        round: usize,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = self.t0.elapsed();
        let result = f();
        let end = self.t0.elapsed();
        self.calls += 1;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
            parent,
            request_id: round as u64,
        });
        if round > 0 {
            self.series
                .entry(name.to_string())
                .or_default()
                .push((end - start).as_secs_f64() * 1e3);
        }
        (self.spans.len() - 1, result)
    }

    /// Median of a rung's samples, ms.
    fn median_ms(&self, name: &str) -> f64 {
        stats::median(self.series.get(name).unwrap_or_else(|| panic!("rung {name} never ran")))
    }

    /// A rung's self time in µs: its median minus the rung beneath it.
    /// One that is negative by more than the two rungs' MADs means the
    /// ladder does not nest as assumed; it is flagged, not hidden.
    fn self_us(&self, upper: &str, lower: &str) -> f64 {
        let self_ms = self.median_ms(upper) - self.median_ms(lower);
        let noise_ms: f64 = [upper, lower]
            .iter()
            .map(|rung| stats::mad(&self.series[*rung], self.median_ms(rung)))
            .sum();
        let verdict = if self_ms >= -noise_ms { "ok" } else { "NEGATIVE" };
        eprintln!("# self\t{upper} - {lower}\t{self_ms:.4} ms\tmad {noise_ms:.4} ms\t{verdict}");
        self_ms * 1e3
    }

    /// Every rung's median, MAD and sample count, to stderr.
    fn report(&self) {
        for (name, samples) in &self.series {
            let med = stats::median(samples);
            let mad = stats::mad(samples, med);
            eprintln!("# rung\t{name}\tmedian_ms={med:.4}\tmad_ms={mad:.4}\tn={}", samples.len());
        }
    }

    /// Write every span to `benchmark/out/trace.json` under the
    /// working directory (`run.py` runs this from the repository root).
    fn write(&self) {
        let mut json = String::from("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            json.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request_id,
                if id + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        json.push_str("]}\n");
        let dir = std::path::Path::new("benchmark/out");
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("trace.json"), json))
        {
            Ok(()) => eprintln!("# trace\t{} spans in benchmark/out/trace.json", self.spans.len()),
            Err(e) => eprintln!("# trace\tnot written: {e}"),
        }
    }
}

/// Run `round(r)` for the warm-up round `r = 0`, then for
/// `MIN_ROUNDS`..=`MAX_ROUNDS` measured rounds, stopping once
/// `budget_s` is spent.
fn rounds(budget_s: f64, mut round: impl FnMut(usize)) {
    round(0);
    let t0 = Instant::now();
    for r in 1..=MAX_ROUNDS {
        if r > MIN_ROUNDS && t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        round(r);
    }
}

/// Per-layer metrics collected so far, by name.
type Metrics = BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, value: f64) {
    assert!(m.insert(name.to_string(), value).is_none(), "metric {name} set twice");
}

/// How often each Table-I shape occurs among the model's convolutions
/// (index = Table-I id − 1).
fn conv_multiset() -> Vec<usize> {
    let table = resnet50_table1(1);
    let mut counts = vec![0usize; table.len()];
    // blob name → (channels, spatial extent)
    let mut dims: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for node in resnet50_paper().nodes() {
        match node {
            NodeSpec::Input { name, c, h, .. } => {
                dims.insert(name.clone(), (*c, *h));
            }
            NodeSpec::Conv { name, bottom, k, r, stride, pad, .. } => {
                let (c, hw) = dims[bottom];
                let at = table
                    .iter()
                    .position(|(_, s)| (s.c, s.k, s.h, s.r, s.stride) == (c, *k, hw, *r, *stride))
                    .expect("every ResNet-50 convolution is a Table-I shape");
                counts[at] += 1;
                dims.insert(name.clone(), (*k, (hw + 2 * pad - r) / stride + 1));
            }
            NodeSpec::Pool { name, bottom, size, stride, pad, .. } => {
                let (c, hw) = dims[bottom];
                dims.insert(name.clone(), (c, (hw + 2 * pad - size) / stride + 1));
            }
            NodeSpec::Bn { name, bottom, .. } => {
                let d = dims[bottom];
                dims.insert(name.clone(), d);
            }
            _ => {}
        }
    }
    counts
}

/// One Table-I shape with everything its four passes read and write.
struct ConvCase {
    id: usize,
    shape: ConvShape,
    layer: Arc<ConvLayer>,
    qlayer: Arc<ConvLayer>,
    x: BlockedActs,
    w: BlockedFilter,
    y: BlockedActs,
    gy: BlockedActs,
    gx: BlockedActs,
    dw: BlockedFilter,
    xq: VnniActs,
    wq: VnniFilter,
    yq: BlockedActs,
    mult: Vec<f32>,
    zero_bias: Vec<f32>,
}

impl ConvCase {
    fn new(id: usize, shape: ConvShape, layer: Arc<ConvLayer>, qlayer: Arc<ConvLayer>) -> Self {
        let s = &shape;
        let kpad = s.k.next_multiple_of(VLEN);
        Self {
            id,
            shape,
            x: BlockedActs::random(s.n, s.c, s.h, s.w, layer.input_pad(), 1),
            w: BlockedFilter::random(s.k, s.c, s.r, s.s, 2),
            y: layer.new_output(),
            gy: BlockedActs::random(s.n, s.k, s.p(), s.q(), layer.dout_pad(), 3),
            gx: layer.new_input(),
            dw: layer.new_filter(),
            xq: VnniActs::random(s.n, s.c, s.h, s.w, qlayer.input_pad(), 4),
            wq: VnniFilter::random(s.k, s.c, s.r, s.s, 5),
            yq: qlayer.new_output(),
            mult: vec![1.0; kpad],
            zero_bias: vec![0.0; kpad],
            layer,
            qlayer,
        }
    }

    /// Run one pass once.
    fn run(&mut self, pass: &str, pool: &ThreadPool) {
        match pass {
            "fwd" => self.layer.forward(pool, &self.x, &self.w, &mut self.y, &FuseCtx::default()),
            "q8" => {
                // a fusion-free int8 plan runs Bias with a zero vector
                let ctx = FuseCtx { bias: Some(&self.zero_bias), eltwise: None };
                self.qlayer.forward_quant(pool, &self.xq, &self.wq, &mut self.yq, &self.mult, &ctx);
            }
            "bwd" => self.layer.backward(pool, &self.gy, &self.w, &mut self.gx),
            "upd" => self.layer.update(pool, &self.x, &self.gy, &mut self.dw),
            other => unreachable!("no pass {other}"),
        }
    }
}

/// Σ over the model's convolutions of each shape's standalone median,
/// per pass, ms — what the rungs above are compared with.
type ConvTotals = BTreeMap<&'static str, f64>;

/// The `conv` layer: the 20 Table-I shapes at N = 4 on
/// `LayerOptions::new(T)` plans, every pass, and the planning cost.
fn conv_section(
    tr: &mut Tracer,
    m: &mut Metrics,
    pool: &ThreadPool,
    host: &MachineModel,
    budget_s: f64,
) -> ConvTotals {
    let table = resnet50_table1(MINIBATCH);
    let counts = conv_multiset();
    let cache = PlanCache::new();
    let t0 = Instant::now();
    let layers: Vec<Arc<ConvLayer>> =
        table.iter().map(|(_, s)| cache.get_or_build(*s, LayerOptions::new(T))).collect();
    put(m, "conv.plan_build_ms", t0.elapsed().as_secs_f64() * 1e3);
    let mut cases: Vec<ConvCase> = table
        .iter()
        .zip(layers)
        .map(|((id, s), layer)| {
            let int8 = LayerOptions::new(T).with_precision(Precision::Int8);
            ConvCase::new(*id, *s, layer, cache.get_or_build(*s, int8))
        })
        .collect();
    let fallbacks = cases.iter().filter(|c| c.layer.bwd_kind() == BwdKind::GemmFallback).count();
    put(m, "conv.bwd.fallback_layers", fallbacks as f64);

    rounds(budget_s, |round| {
        for case in &mut cases {
            for (pass, ..) in CONV_PASSES {
                let name = format!("conv.{pass}.{}", layer_tag(case.id));
                tr.call(&name, None, round, || case.run(pass, pool));
            }
        }
    });

    let peak = host.peak_gflops();
    let mut totals = ConvTotals::new();
    for (pass, rate, _) in CONV_PASSES {
        let (mut flops, mut ms, mut predicted_ms) = (0.0, 0.0, 0.0);
        for (case, count) in cases.iter().zip(&counts) {
            let tag = layer_tag(case.id);
            let med = tr.median_ms(&format!("conv.{pass}.{tag}"));
            let layer_flops = case.shape.flops() as f64;
            put(m, &format!("conv.{pass}.{tag}.{rate}"), layer_flops / med / 1e6);
            flops += *count as f64 * layer_flops;
            ms += *count as f64 * med;
            if pass == "fwd" {
                let eff = predicted_efficiency(host, &case.shape, Pass::Forward);
                predicted_ms += *count as f64 * layer_flops / (eff * peak * 1e6);
            }
        }
        put(m, &format!("conv.{pass}.pct_peak"), 100.0 * flops / ms / 1e6 / peak);
        if pass == "fwd" {
            put(m, "conv.fwd.pct_predicted", 100.0 * predicted_ms / ms);
        }
        totals.insert(pass, ms);
    }
    totals
}

/// One small shape per pass against `conv::reference`.
fn conv_reference_gate(pool: &ThreadPool) -> bool {
    let s = ConvShape::new(2, 32, 32, 12, 12, 3, 3, 1, 1);
    let layer = ConvLayer::new(s, LayerOptions::new(T).with_precision(Precision::Int8));
    let x = Nchw::random(s.n, s.c, s.h, s.w, 11);
    let w = Kcrs::random(s.k, s.c, s.r, s.s, 12);
    let gy = Nchw::random(s.n, s.k, s.p(), s.q(), 13);
    let xb = BlockedActs::from_nchw(&x, layer.input_pad());
    let wb = BlockedFilter::from_kcrs(&w);
    let gyb = BlockedActs::from_nchw(&gy, layer.dout_pad());

    let mut yb = layer.new_output();
    layer.forward(pool, &xb, &wb, &mut yb, &FuseCtx::default());
    let mut y_ref = Nchw::zeros(s.n, s.k, s.p(), s.q());
    conv_fwd_ref(&s, &x, &w, &mut y_ref);
    let fwd = Norms::compare(y_ref.as_slice(), yb.to_nchw().as_slice());

    let mut gxb = layer.new_input();
    layer.backward(pool, &gyb, &wb, &mut gxb);
    let mut gx_ref = Nchw::zeros(s.n, s.c, s.h, s.w);
    conv_bwd_ref(&s, &gy, &w, &mut gx_ref);
    let bwd = Norms::compare(gx_ref.as_slice(), gxb.to_nchw().as_slice());

    let mut dwb = layer.new_filter();
    layer.update(pool, &xb, &gyb, &mut dwb);
    let mut dw_ref = Kcrs::zeros(s.k, s.c, s.r, s.s);
    conv_upd_ref(&s, &x, &gy, &mut dw_ref);
    let upd = Norms::compare(dw_ref.as_slice(), dwb.to_kcrs().as_slice());

    // int8: the reference on the integer values themselves (sums stay
    // far below 2^24, so f32 holds them exactly), multiplier 1, bias 0
    let xq = VnniActs::random(s.n, s.c, s.h, s.w, layer.input_pad(), 14);
    let wq = VnniFilter::random(s.k, s.c, s.r, s.s, 15);
    let (mut xi, mut wi) = (Nchw::zeros(s.n, s.c, s.h, s.w), Kcrs::zeros(s.k, s.c, s.r, s.s));
    for n in 0..s.n {
        for c in 0..s.c {
            for h in 0..s.h {
                for w in 0..s.w {
                    *xi.at_mut(n, c, h, w) = f32::from(xq.get(n, c, h, w));
                }
            }
        }
    }
    for k in 0..s.k {
        for c in 0..s.c {
            for r in 0..s.r {
                for q in 0..s.s {
                    *wi.at_mut(k, c, r, q) = f32::from(wq.get(k, c, r, q));
                }
            }
        }
    }
    let kpad = s.k.next_multiple_of(VLEN);
    let mut yq = layer.new_output();
    let zero = vec![0.0f32; kpad];
    let ctx = FuseCtx { bias: Some(&zero), eltwise: None };
    layer.forward_quant(pool, &xq, &wq, &mut yq, &vec![1.0; kpad], &ctx);
    let mut yq_ref = Nchw::zeros(s.n, s.k, s.p(), s.q());
    conv_fwd_ref(&s, &xi, &wi, &mut yq_ref);
    let q8 = Norms::compare(yq_ref.as_slice(), yq.to_nchw().as_slice());

    gate("conv_fwd_vs_reference", fwd.ok(1e-4), fwd)
        & gate("conv_bwd_vs_reference", bwd.ok(1e-4), bwd)
        & gate("conv_upd_vs_reference", upd.ok(1e-4), upd)
        & gate("conv_q8_vs_reference", q8.linf_abs == 0.0, q8)
}

/// The lower rungs of the inference ladder on the paper's ResNet-50,
/// f32: one batch through `Network::forward` and
/// `InferenceSession::run`, which share one pool — the state of the
/// untraced `resnet50_infer_f32` window. Returns the session's answer.
fn session_section(
    tr: &mut Tracer,
    m: &mut Metrics,
    pool: &Arc<ThreadPool>,
    conv: &ConvTotals,
    batch: &[f32],
    budget_s: f64,
) -> Option<InferenceOutput> {
    let model = resnet50_paper();
    let cache = PlanCache::new();
    let mut session =
        InferenceSession::with_shared(&model, MINIBATCH, Arc::clone(pool), cache.clone())
            .expect("session builds");
    let mut net =
        Network::build_with(&model, MINIBATCH, Arc::clone(pool), ExecMode::Inference, &cache)
            .expect("network builds");
    // the first build missed every distinct plan, the second only hit
    put(m, "conv.plan_cache_hit_rate", cache.stats().hit_rate());
    net.load_input_nchw(batch, MINIBATCH);
    let one = &batch[..session.sample_elems()];
    let mut answer = None;
    rounds(budget_s, |round| {
        let (s, direct) = tr.call("session.run", None, round, || session.run(batch));
        tr.call("gxm.infer.fwd", Some(s), round, || net.forward());
        tr.call("session.run_samples1", None, round, || {
            session.run_samples(one, 1).expect("one sample")
        });
        answer = direct.ok();
    });
    let fwd = tr.median_ms("gxm.infer.fwd");
    let run = tr.median_ms("session.run");
    put(m, "gxm.infer.fwd_ms", fwd);
    put(m, "gxm.infer.nonconv_share", 1.0 - conv["fwd"] / fwd);
    put(m, "session.run_ms", run);
    put(m, "session.overhead_us", tr.self_us("session.run", "gxm.infer.fwd"));
    put(m, "serve.partial_batch_cost_ratio", tr.median_ms("session.run_samples1") / run);
    answer
}

/// The upper rungs: the same batch through `BatchingFrontend::infer`,
/// then through `Client::infer` against the daemon's own frontend.
///
/// Each system is measured with nothing else alive. An idle pool,
/// frontend or daemon is not free — its parked workers and the accept
/// loop wake a few thousand times a second on the two cores the
/// measured rung computes on, ≈ 4 % of a forward here — so rungs of
/// different systems are not interleaved; `serve.overhead_us` is the
/// frontend alone against the session alone.
fn serving_section(
    tr: &mut Tracer,
    m: &mut Metrics,
    batch: &[f32],
    budget_s: f64,
    direct: Option<InferenceOutput>,
) -> bool {
    let model = resnet50_paper();
    let cfg = ServeConfig::new(1, T, MINIBATCH);
    let mut answers = vec![direct];
    {
        let frontend = BatchingFrontend::new(&model, cfg.clone()).expect("frontend builds");
        rounds(budget_s, |round| {
            let (_, served) = tr.call("serve.infer", None, round, || frontend.infer(batch));
            answers.truncate(1);
            answers.push(served.ok());
        });
        frontend.shutdown();
    }
    put(m, "serve.infer_ms", tr.median_ms("serve.infer"));
    put(m, "serve.overhead_us", tr.self_us("serve.infer", "session.run"));

    let hosted = ModelConfig::new("resnet50", &model, cfg).expect("model config");
    let daemon = Daemon::bind(DaemonConfig::loopback(), vec![hosted]).expect("daemon binds");
    let mut client = Client::connect(daemon.local_addr()).expect("client connects");
    let frontend = daemon.registry().frontend("resnet50").expect("resnet50 is hosted");
    rounds(budget_s, |round| {
        let (d, over_wire) = tr.call("daemon.infer", None, round, || {
            client.infer("resnet50", MINIBATCH as u32, batch)
        });
        tr.call("serve.infer/in_daemon", Some(d), round, || {
            frontend.infer(batch).expect("the daemon's frontend serves")
        });
        answers.truncate(2);
        answers.push(over_wire.ok());
    });
    drop(client);
    daemon.shutdown();
    put(m, "daemon.infer_ms", tr.median_ms("daemon.infer"));
    put(m, "daemon.overhead_us", tr.self_us("daemon.infer", "serve.infer/in_daemon"));

    let same = answers.iter().all(|a| match (a, &answers[0]) {
        (Some(a), Some(b)) => a.probs == b.probs && a.top1 == b.top1,
        _ => false,
    });
    gate("ladder_rungs_bit_identical", same, "daemon = frontend = session on one batch")
}

/// `Network::forward` of the int8 network after a one-batch calibration.
fn int8_section(
    tr: &mut Tracer,
    m: &mut Metrics,
    pool: &Arc<ThreadPool>,
    conv: &ConvTotals,
    batch: &[f32],
    budget_s: f64,
) {
    let mut net = Network::build_quantized(
        &resnet50_paper(),
        MINIBATCH,
        Arc::clone(pool),
        ExecMode::Inference,
        &PlanCache::new(),
        true,
        TuneLevel::Heuristic,
        Precision::Int8,
    )
    .expect("int8 network builds");
    net.load_input_nchw(batch, MINIBATCH);
    net.calibrate_batch();
    rounds(budget_s, |round| {
        tr.call("gxm.int8.fwd", None, round, || net.forward());
    });
    let fwd = tr.median_ms("gxm.int8.fwd");
    put(m, "gxm.int8.fwd_ms", fwd);
    put(m, "gxm.int8.nonconv_share", 1.0 - conv["q8"] / fwd);
}

/// One training step whole, then its four public phases one by one.
fn train_section(
    tr: &mut Tracer,
    m: &mut Metrics,
    conv: &ConvTotals,
    seed: u64,
    budget_s: f64,
) -> bool {
    let mut net = Network::build(&resnet50_paper(), MINIBATCH, T).expect("network builds");
    let (c, h, w) = net.input_dims();
    let mut data = SyntheticData::new(workloads::POOL_IMAGES, c, h, w, seed);
    let mut finite = true;
    rounds(budget_s, |round| {
        let labels = data.next_batch(net.input_mut());
        let (parent, step) =
            tr.call("gxm.train.step", None, round, || net.train_step(&labels, 0.005, 0.9));
        finite &= step.loss.is_finite();
        let labels = data.next_batch(net.input_mut());
        net.set_labels(&labels);
        let (_, fwd) = tr.call("gxm.train.fwd", Some(parent), round, || net.forward());
        finite &= fwd.loss.is_finite();
        tr.call("gxm.train.bwd", Some(parent), round, || net.backward());
        tr.call("gxm.train.upd", Some(parent), round, || net.update());
        tr.call("gxm.train.sgd", Some(parent), round, || net.sgd(0.005, 0.9));
    });
    let phases: Vec<f64> = ["fwd", "bwd", "upd", "sgd"]
        .iter()
        .map(|p| tr.median_ms(&format!("gxm.train.{p}")))
        .collect();
    for (phase, ms) in ["fwd", "bwd", "upd", "sgd"].iter().zip(&phases) {
        put(m, &format!("gxm.train.{phase}_ms"), *ms);
    }
    let step = tr.median_ms("gxm.train.step");
    let sum: f64 = phases.iter().sum();
    put(m, "gxm.train.unexplained_ms", step - sum);
    put(m, "gxm.train.nonconv_share", 1.0 - (conv["fwd"] + conv["bwd"] + conv["upd"]) / sum);
    gate("train_loss_finite", finite, "")
}

/// Median seconds of `f` over `reps` calls.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// `tensor`, `parallel` and the wire codec on their own. Bytes are
/// computed from tensor sizes, not measured.
fn micro_section(m: &mut Metrics, pool: &ThreadPool, batch: &[f32]) {
    let src = Nchw::random(MINIBATCH, 64, 56, 56, 21);
    let secs = median_secs(9, || {
        black_box(BlockedActs::from_nchw(black_box(&src), 0));
    });
    put(m, "tensor.nchw_to_blocked_gbs", (2 * 4 * src.as_slice().len()) as f64 / secs / 1e9);

    let acts = BlockedActs::random(MINIBATCH, 256, 56, 56, 0, 22);
    let mut quantized = VnniActs::zeros(MINIBATCH, 256, 56, 56, 0);
    let inv_scale = vec![64.0f32; 256];
    let secs = median_secs(9, || quantized.quantize_per_channel_into(black_box(&acts), &inv_scale));
    put(m, "tensor.quantize_gbs", ((4 + 2) * MINIBATCH * 256 * 56 * 56) as f64 / secs / 1e9);

    const REGIONS: usize = 1000;
    let fork_join = median_secs(9, || {
        for _ in 0..REGIONS {
            pool.run(|_| {});
        }
    }) / REGIONS as f64;
    put(m, "parallel.fork_join_us", fork_join * 1e6);
    let with_barriers = median_secs(9, || {
        pool.run(|ctx| {
            for _ in 0..REGIONS {
                ctx.barrier();
            }
        });
    });
    put(m, "parallel.barrier_us", (with_barriers - fork_join).max(0.0) / REGIONS as f64 * 1e6);

    let mut frame = Vec::new();
    let secs =
        median_secs(9, || frame = encode_infer("resnet50", MINIBATCH as u32, black_box(batch)));
    put(m, "daemon.codec_encode_gbs", frame.len() as f64 / secs / 1e9);
    let secs = median_secs(9, || {
        black_box(parse_infer(black_box(&frame)).expect("own frame parses"));
    });
    put(m, "daemon.codec_parse_gbs", frame.len() as f64 / secs / 1e9);
}

/// The two open-loop phases of `serve_open_resnet50_*`, shortened, for
/// the batching counters only `ServerStats` has.
fn serve_section(m: &mut Metrics, seed: u64, seconds: f64) -> u64 {
    let frontend = BatchingFrontend::new(resnet50_served(), ServeConfig::new(1, T, MINIBATCH))
        .expect("frontend builds");
    let pool = image_pool(seed, frontend.sample_elems());
    for _ in 0..8 {
        frontend.infer(&pool[0]).expect("warm-up request");
    }
    let (mut lag, mut failed) = (Vec::new(), 0);
    for (tag, rate) in metrics::open_loop_rates() {
        frontend.reset_stats();
        let phase = open_loop(&frontend, &pool, seed, rate, seconds);
        let s = frontend.stats();
        put(m, &format!("serve.occupancy_{tag}"), s.mean_occupancy);
        put(
            m,
            &format!("serve.deadline_flush_share_{tag}"),
            s.deadline_flushes as f64 / s.batches.max(1) as f64,
        );
        if tag == "r100" {
            put(m, "serve.batches_per_s_r100", s.batches as f64 / phase.elapsed_s);
        }
        eprintln!(
            "# phase\trate={rate}\tsent={}\tsucceeded={}\tfailed={}",
            phase.sent,
            phase.samples.len(),
            phase.failed
        );
        failed += phase.failed;
        lag.extend(phase.samples);
    }
    put(m, "serve.generator_lag_p99_ms", lag_p99_ms(&lag));
    frontend.shutdown();
    failed
}

/// `daemon_closed_tiny` twice, spans off then on, for the tracing
/// overhead; then the daemon's control paths on the warm daemon.
fn daemon_section(tr: &mut Tracer, m: &mut Metrics, seed: u64, seconds: f64) -> u64 {
    let (daemon, mut clients) = tiny_daemon(T);
    let pool = image_pool(seed, 3 * 32 * 32);
    let untraced = daemon_closed_loop(&mut clients, &pool, seed, seconds, false);
    let base = tr.t0.elapsed();
    let traced = daemon_closed_loop(&mut clients, &pool, seed, seconds, true);
    let rate = |w: &workloads::Window| w.lat_ms.len() as f64 / w.elapsed_s;
    put(m, "trace.overhead_pct", 100.0 * (1.0 - rate(&traced.window) / rate(&untraced.window)));
    for (i, (start, end)) in traced.spans.iter().enumerate() {
        tr.spans.push(Span {
            name: "daemon_closed_tiny.request".to_string(),
            start_ns: (base + *start).as_nanos(),
            end_ns: (base + *end).as_nanos(),
            parent: None,
            request_id: i as u64,
        });
    }
    tr.calls += (untraced.window.lat_ms.len() + traced.window.lat_ms.len()) as u64;

    // > 10 k requests are behind this frontend now: the stats path's
    // clone-and-sort works on a full latency ring
    let frontend = daemon.registry().frontend(TINY).expect("tiny is hosted");
    put(
        m,
        "serve.stats_poll_us",
        median_secs(21, || {
            black_box(frontend.stats());
        }) * 1e6,
    );
    let client = &mut clients[0];
    put(
        m,
        "daemon.stats_roundtrip_us",
        median_secs(21, || drop(client.stats(None).expect("stats"))) * 1e6,
    );
    let addr = daemon.local_addr();
    put(
        m,
        "daemon.connect_ms",
        median_secs(21, || drop(Client::connect(addr).expect("connect"))) * 1e3,
    );
    let cfg = tiny_serve_config();
    let weights = InferenceSession::new(tiny_model(), cfg.minibatch, cfg.threads_per_replica)
        .expect("session builds")
        .network()
        .state_dict();
    put(
        m,
        "daemon.reload_ms",
        median_secs(9, || {
            client.reload(TINY, &weights).expect("reload");
        }) * 1e3,
    );
    drop(clients);
    daemon.shutdown();
    untraced.window.failed + traced.window.failed
}

/// The traced run: every per-layer metric, in table order.
pub fn run(args: &RunArgs) -> Report {
    let mut tr = Tracer::new();
    let mut m = Metrics::new();
    let pool = Arc::new(ThreadPool::new(T));
    // interference only ever lowers a measured peak: best of three
    let host = (0..3)
        .map(|_| anatomy::machine::host::host_model(&pool))
        .max_by(|a, b| a.peak_gflops().total_cmp(&b.peak_gflops()))
        .expect("three calibrations");
    println!("# host\tfingerprint={:016x}", host.fingerprint());
    put(&mut m, "machine.peak_gflops", host.peak_gflops());
    put(&mut m, "machine.stream_gbs", host.mem_bw_gbs);

    // the four round-robin sections share the window's length evenly;
    // the two replayed workloads get a quarter and a sixth of it each
    let budget = args.seconds / 4.0;
    let batch = &batches_from(&image_pool(args.seed, 3 * 224 * 224), args.seed, 1)[0];
    let mut correct = conv_reference_gate(&pool);
    let conv = conv_section(&mut tr, &mut m, &pool, &host, budget);
    let direct = session_section(&mut tr, &mut m, &pool, &conv, batch, budget / 2.0);
    int8_section(&mut tr, &mut m, &pool, &conv, batch, budget);
    micro_section(&mut m, &pool, batch);
    // the sections below bring their own pools; an idle one is not free
    drop(pool);
    correct &= serving_section(&mut tr, &mut m, batch, budget / 4.0, direct);
    correct &= train_section(&mut tr, &mut m, &conv, args.seed, budget);
    let mut failed = serve_section(&mut m, args.seed, args.seconds / 4.0);
    failed += daemon_section(&mut tr, &mut m, args.seed, args.seconds / 6.0);

    put(&mut m, "conv.kernel_cache_entries", anatomy::conv::kernel_cache_stats().misses as f64);
    put(
        &mut m,
        "kver.kernels_verified",
        anatomy::conv::kernel_verify_stats().kernels_verified as f64,
    );
    tr.report();
    tr.write();
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, _)| {
            let value = m
                .remove(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, value)
        })
        .collect();
    assert!(m.is_empty(), "measured but not declared: {:?}", m.keys());
    Report { attempted: tr.calls, failed, correct, metrics }
}
