//! The six workloads: set-up, warm-up, one measured window with no
//! instrumentation, then the correctness gates.
//!
//! Every workload runs in a process of its own (`run.py` starts one
//! per workload) because the kernel code cache is process-wide: in a
//! shared process `setup_s` would depend on which workload ran first
//! and `peak_rss_mb` would be the largest of them all.

use crate::metrics::{Workload, MINIBATCH, T};
use crate::stats::{self, OpenLoopSample};
use crate::{Report, RunArgs};
use anatomy::daemon::{Client, Daemon, DaemonConfig, ModelConfig};
use anatomy::gxm::data::SyntheticData;
use anatomy::gxm::Network;
use anatomy::serve::{BatchingFrontend, PendingRequest, ServeConfig};
use anatomy::tensor::rng::SplitMix64;
use anatomy::tensor::Norms;
use anatomy::topologies::resnet50_model;
use anatomy::{
    ConvOpts, GraphBuilder, InferenceOutput, InferenceSession, ModelSpec, Precision, TuneLevel,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's geometry: ResNet-50 on 224×224 inputs, 1000 classes.
pub fn resnet50_paper() -> ModelSpec {
    resnet50_model(224, 1000)
}

/// The served ResNet-50: 64×64 inputs, 100 classes (≈ 27 ms a batch).
pub fn resnet50_served() -> ModelSpec {
    resnet50_model(64, 100)
}

/// The `serve-daemon` binary's stock CNN (3×32×32 → 8 classes) under
/// its default seed: small enough that a batch computes in ≈ 0.2 ms,
/// so everything around the kernels is what the daemon workload weighs.
pub fn tiny_model() -> ModelSpec {
    GraphBuilder::new()
        .seed(0x5eed)
        .input("data", 3, 32, 32)
        .conv("conv1", ConvOpts::k(16).rs(3).pad(1).bias().relu())
        .max_pool("pool1", 2, 2, 0)
        .conv("conv2", ConvOpts::k(16).rs(3).pad(1).bias().relu())
        .gap("gap")
        .fc("logits", 8)
        .softmax("loss")
        .build()
        .expect("the stock CNN is valid by construction")
}

/// Name the tiny model is hosted under.
pub const TINY: &str = "tiny";
/// Serving shape of the tiny model: one 1-thread replica, 2-image batches.
pub fn tiny_serve_config() -> ServeConfig {
    ServeConfig::new(1, 1, 2)
}

/// Images in every workload's seeded input pool.
pub const POOL_IMAGES: usize = 16;
/// Every this-many-th served response is kept and compared bit for bit
/// with a direct `InferenceSession::run_samples` of the same image.
const CHECK_EVERY: usize = 16;
/// Warm-up is this share of the measured window (plus a minimum number
/// of operations), so caches fill and lazy set-up ends before timing.
const WARMUP_SHARE: f64 = 0.125;

/// The seeded input pool: `POOL_IMAGES` images of `elems` values.
pub fn image_pool(seed: u64, elems: usize) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed ^ 0x696d_6167_6573);
    (0..POOL_IMAGES)
        .map(|_| {
            let mut image = vec![0.0f32; elems];
            rng.fill_f32(&mut image);
            image
        })
        .collect()
}

/// Full batches assembled from random picks of the pool.
pub fn batches_from(pool: &[Vec<f32>], seed: u64, count: usize) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed ^ 0x6261_7463);
    (0..count)
        .map(|_| {
            (0..MINIBATCH).flat_map(|_| pool[pick(&mut rng, pool.len())].iter().copied()).collect()
        })
        .collect()
}

fn pick(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The system a workload drives, as its public constructors build it.
enum System {
    Infer(InferenceSession),
    Train(Network),
    Serve(BatchingFrontend),
    Daemon(Daemon, Vec<Client>),
}

/// Everything `setup_s` times, for one workload.
fn build(w: &Workload) -> System {
    match w.name {
        "resnet50_infer_f32" => System::Infer(
            InferenceSession::new(resnet50_paper(), MINIBATCH, T).expect("session builds"),
        ),
        "resnet50_infer_int8" => {
            let mut session = InferenceSession::with_shared_quantized(
                resnet50_paper(),
                MINIBATCH,
                Arc::new(anatomy::parallel::ThreadPool::new(T)),
                anatomy::conv::PlanCache::new(),
                TuneLevel::Heuristic,
                Precision::Int8,
            )
            .expect("int8 session builds");
            // calibration data belongs to the deployment, not to the
            // workload's inputs: one fixed batch
            let calib = &batches_from(&image_pool(0xca11b, session.sample_elems()), 0, 1)[0];
            session.calibrate(calib, MINIBATCH).expect("int8 session calibrates");
            System::Infer(session)
        }
        "resnet50_train" => {
            System::Train(Network::build(&resnet50_paper(), MINIBATCH, T).expect("network builds"))
        }
        "serve_open_resnet50_r60" | "serve_open_resnet50_r100" => System::Serve(
            BatchingFrontend::new(resnet50_served(), ServeConfig::new(1, T, MINIBATCH))
                .expect("frontend builds"),
        ),
        "daemon_closed_tiny" => {
            let (daemon, clients) = tiny_daemon(T);
            System::Daemon(daemon, clients)
        }
        other => unreachable!("workload {other} is in the table but has no builder"),
    }
}

/// A loopback daemon hosting the tiny model, with `connections` clients.
pub fn tiny_daemon(connections: usize) -> (Daemon, Vec<Client>) {
    let model = ModelConfig::new(TINY, tiny_model(), tiny_serve_config()).expect("model config");
    let daemon = Daemon::bind(DaemonConfig::loopback(), vec![model]).expect("daemon binds");
    let clients = (0..connections)
        .map(|_| Client::connect(daemon.local_addr()).expect("client connects"))
        .collect();
    (daemon, clients)
}

/// `--setup-probe`: build the workload's system once in this (fresh)
/// process and return the seconds it took.
pub fn setup_probe(w: &Workload) -> f64 {
    timed_build(w).1
}

fn timed_build(w: &Workload) -> (System, f64) {
    let t0 = Instant::now();
    let system = build(w);
    (system, t0.elapsed().as_secs_f64())
}

/// Build the system, timing it, and time the same build in
/// `SETUP_PROBES` fresh child processes first: `setup_s` is the median
/// of all of them, each with cold plan and kernel caches as a user's
/// process has. (The first probe also pays the hypervisor for guest
/// memory nothing has touched lately — up to 5× on the training
/// network — which is what the median is there to shrug off.)
fn timed_setup(w: &Workload) -> (System, f64) {
    const SETUP_PROBES: usize = 4;
    let exe = std::env::current_exe().expect("own path");
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", w.name])
            .output()
            .expect("setup probe starts");
        assert!(
            out.status.success(),
            "setup probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        samples.push(text.trim().parse::<f64>().expect("setup probe prints seconds"));
    }
    let (system, own) = timed_build(w);
    samples.push(own);
    eprintln!("# setup\tsamples={samples:?}");
    (system, stats::median(&samples))
}

/// One measured window.
pub struct Window {
    /// Latency of every successful operation, ms.
    pub lat_ms: Vec<f64>,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Window length as run, s.
    pub elapsed_s: f64,
}

/// What one workload run produced.
struct Outcome {
    window: Window,
    /// Images each successful operation completed.
    images_per_op: usize,
    /// `VmHWM` when the window closed (before the gates build their
    /// reference sessions).
    rss_mb: f64,
    /// Whether the gates passed.
    correct: bool,
}

/// Run `op` back to back: warm up for `WARMUP_SHARE` of `seconds` (and
/// at least `min_warm_ops` calls), then measure for `seconds`. `op`
/// returns the latency it measured in ms, or `None` when it failed.
pub fn closed_loop(
    seconds: f64,
    min_warm_ops: usize,
    mut op: impl FnMut() -> Option<f64>,
) -> Window {
    let warm = Duration::from_secs_f64(seconds * WARMUP_SHARE);
    let t0 = Instant::now();
    let mut warm_ops = 0;
    while t0.elapsed() < warm || warm_ops < min_warm_ops {
        op();
        warm_ops += 1;
    }
    let window = Duration::from_secs_f64(seconds);
    let (mut lat_ms, mut failed) = (Vec::new(), 0);
    let start = Instant::now();
    while start.elapsed() < window {
        match op() {
            Some(ms) => lat_ms.push(ms),
            None => failed += 1,
        }
    }
    Window { lat_ms, failed, elapsed_s: start.elapsed().as_secs_f64() }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Print one correctness gate's verdict and hand it back.
pub fn gate(name: &str, pass: bool, detail: impl std::fmt::Display) -> bool {
    eprintln!("# gate\t{name}\t{}\t{detail}", if pass { "pass" } else { "FAIL" });
    pass
}

/// `resnet50_infer_f32` and `resnet50_infer_int8`: one caller, `run()`
/// on full batches, closed loop.
fn run_infer(w: &Workload, mut session: InferenceSession, args: &RunArgs) -> Outcome {
    let pool = image_pool(args.seed, session.sample_elems());
    let batches = batches_from(&pool, args.seed, 8);
    let mut next = 0;
    let mut finite = true;
    let window = closed_loop(args.seconds, 3, || {
        let batch = &batches[next % batches.len()];
        next += 1;
        let t = Instant::now();
        let out = session.run(batch).ok()?;
        let ms = ms_since(t);
        finite &= out.probs.iter().all(|p| p.is_finite());
        Some(ms)
    });
    let rss_mb = peak_rss_mb();

    let probe = &batches[0];
    let got = session.run(probe).expect("probe batch runs");
    let mut correct = gate("probabilities_finite", finite, "");
    if w.name == "resnet50_infer_f32" {
        // the fused executor against the independent unfused one, at
        // the tolerance tests/inference_parity.rs uses
        let mut unfused = InferenceSession::new_unfused(resnet50_paper(), MINIBATCH, T)
            .expect("unfused session builds");
        let want = unfused.run(probe).expect("probe batch runs");
        let norms = Norms::compare(&want.probs, &got.probs);
        correct &= gate("fused_vs_unfused", want.top1 == got.top1 && norms.ok(1e-4), norms);
    } else {
        let mut f32_session =
            InferenceSession::new(resnet50_paper(), MINIBATCH, T).expect("f32 session builds");
        let want = f32_session.run(probe).expect("probe batch runs");
        let agree = want.top1.iter().zip(&got.top1).filter(|(a, b)| a == b).count() as f64
            / want.top1.len() as f64;
        let norms = Norms::compare(&want.probs, &got.probs);
        let detail = format!("top1_agreement={agree} rel_prob_l2={:.3e}", norms.l2_rel);
        correct &= gate("int8_vs_f32", agree >= 0.9, detail);
    }
    Outcome { window, images_per_op: MINIBATCH, rss_mb, correct }
}

/// `resnet50_train`: synthetic batch, then one SGD step, closed loop.
/// A step whose loss is not finite counts as failed.
fn run_train(mut net: Network, args: &RunArgs) -> Outcome {
    // 16 classes of prototypes keep the generator's memory small next
    // to the network's; the labels are valid for the 1000-way head
    let (c, h, w) = net.input_dims();
    let mut data = SyntheticData::new(POOL_IMAGES, c, h, w, args.seed);
    let window = closed_loop(args.seconds, 2, || {
        let t = Instant::now();
        let labels = data.next_batch(net.input_mut());
        let step = net.train_step(&labels, 0.005, 0.9);
        step.loss.is_finite().then(|| ms_since(t))
    });
    let rss_mb = peak_rss_mb();
    let correct = gate("loss_finite_every_step", window.failed == 0, window.failed);
    Outcome { window, images_per_op: MINIBATCH, rss_mb, correct }
}

/// One open-loop phase against a frontend.
pub struct Phase {
    /// Every request that completed.
    pub samples: Vec<OpenLoopSample>,
    /// Requests sent (the schedule's length).
    pub sent: usize,
    /// Requests refused at `submit` or failed at `wait`.
    pub failed: u64,
    /// Every `CHECK_EVERY`-th response with the pool image it answers.
    pub checks: Vec<(usize, InferenceOutput)>,
    /// From the phase start to the last completion (at least the
    /// scheduled duration), s.
    pub elapsed_s: f64,
}

/// Open loop: this thread submits single images on the seeded schedule
/// whatever the frontend's state, a collector thread waits for the
/// results in submission order.
pub fn open_loop(
    frontend: &BatchingFrontend,
    pool: &[Vec<f32>],
    seed: u64,
    rate_per_s: f64,
    seconds: f64,
) -> Phase {
    let due = stats::poisson_schedule(seed, rate_per_s, Duration::from_secs_f64(seconds));
    let mut rng = SplitMix64::new(seed ^ 0x7069_636b);
    let (tx, rx) = mpsc::channel::<(usize, usize, Duration, Duration, PendingRequest)>();
    let mut failed = 0u64;
    let t0 = Instant::now();
    let (samples, wait_failed, checks) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let (mut samples, mut failed, mut checks) = (Vec::new(), 0u64, Vec::new());
            for (index, image, due, sent, pending) in rx {
                match pending.wait() {
                    Ok(out) => {
                        samples.push(OpenLoopSample { due, sent, done: t0.elapsed() });
                        if index % CHECK_EVERY == 0 {
                            checks.push((image, out));
                        }
                    }
                    Err(_) => failed += 1,
                }
            }
            (samples, failed, checks)
        });
        for (index, due) in due.iter().enumerate() {
            if let Some(ahead) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(ahead);
            }
            let image = pick(&mut rng, pool.len());
            let sent = t0.elapsed();
            match frontend.submit(&pool[image]) {
                Ok(pending) => {
                    tx.send((index, image, *due, sent, pending)).expect("collector is alive")
                }
                Err(_) => failed += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector does not panic")
    });
    Phase {
        samples,
        sent: due.len(),
        failed: failed + wait_failed,
        checks,
        elapsed_s: t0.elapsed().as_secs_f64().max(seconds),
    }
}

/// Compare kept responses with a direct session's answer for the same
/// image, bit for bit.
fn responses_match_direct(
    direct: &mut InferenceSession,
    pool: &[Vec<f32>],
    checks: &[(usize, InferenceOutput)],
) -> bool {
    let expected: Vec<InferenceOutput> =
        pool.iter().map(|image| direct.run_samples(image, 1).expect("direct run")).collect();
    let mismatches = checks
        .iter()
        .filter(|(image, out)| {
            out.probs != expected[*image].probs || out.top1 != expected[*image].top1
        })
        .count();
    gate("served_bit_identical_to_direct", mismatches == 0, format!("{} checked", checks.len()))
}

/// `serve_open_resnet50_r60` / `_r100`: single-image requests on a
/// Poisson schedule at the workload's rate.
fn run_serve(w: &Workload, frontend: BatchingFrontend, args: &RunArgs) -> Outcome {
    let rate = w.rate_per_s.expect("an open-loop workload has a rate");
    let pool = image_pool(args.seed, frontend.sample_elems());
    for _ in 0..8 {
        frontend.infer(&pool[0]).expect("warm-up request");
    }
    let warm = open_loop(&frontend, &pool, args.seed ^ 1, rate, args.seconds * WARMUP_SHARE);
    let phase = open_loop(&frontend, &pool, args.seed, rate, args.seconds);
    let rss_mb = peak_rss_mb();
    frontend.shutdown();
    eprintln!(
        "# phase\trate={rate}\tsent={}\tsucceeded={}\tfailed={}\tgenerator_lag_p99_ms={:.3}",
        phase.sent,
        phase.samples.len(),
        phase.failed,
        lag_p99_ms(&phase.samples),
    );
    let mut direct =
        InferenceSession::new(resnet50_served(), MINIBATCH, T).expect("direct session builds");
    let mut checks = warm.checks;
    checks.extend(phase.checks);
    let correct = responses_match_direct(&mut direct, &pool, &checks);
    let window = Window {
        lat_ms: phase.samples.iter().map(|s| s.latency().as_secs_f64() * 1e3).collect(),
        failed: phase.failed,
        elapsed_s: phase.elapsed_s,
    };
    Outcome { window, images_per_op: 1, rss_mb, correct }
}

/// p99 of how late the generator sent, ms.
pub fn lag_p99_ms(samples: &[OpenLoopSample]) -> f64 {
    let mut lag: Vec<f64> = samples.iter().map(|s| s.lag().as_secs_f64() * 1e3).collect();
    lag.sort_by(f64::total_cmp);
    stats::percentile(&lag, 99.0)
}

/// The daemon closed loop's result, of one connection or of all merged.
pub struct DaemonLoop {
    /// The measured window.
    pub window: Window,
    /// Kept responses with their pool image.
    pub checks: Vec<(usize, InferenceOutput)>,
    /// `(start, end)` of every request since `t0`, when `spans` was asked for.
    pub spans: Vec<(Duration, Duration)>,
}

/// Each connection sends 1-image `infer`s back to back; the first also
/// polls `stats(None)` after every 64th request, as a scraper would.
pub fn daemon_closed_loop(
    clients: &mut [Client],
    pool: &[Vec<f32>],
    seed: u64,
    seconds: f64,
    spans: bool,
) -> DaemonLoop {
    let t0 = Instant::now();
    let per_client: Vec<DaemonLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (0x636c_6965 + k as u64));
                    let (mut sent, mut checks, mut recorded) = (0usize, Vec::new(), Vec::new());
                    let window = closed_loop(seconds, CHECK_EVERY, || {
                        let image = pick(&mut rng, pool.len());
                        let start = t0.elapsed();
                        let out = client.infer(TINY, 1, &pool[image]);
                        let end = t0.elapsed();
                        sent += 1;
                        if k == 0 && sent % 64 == 0 {
                            client.stats(None).ok()?;
                        }
                        let out = out.ok()?;
                        if sent % CHECK_EVERY == 0 {
                            checks.push((image, out));
                        }
                        if spans {
                            recorded.push((start, end));
                        }
                        Some((end - start).as_secs_f64() * 1e3)
                    });
                    DaemonLoop { window, checks, spans: recorded }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    let mut merged = DaemonLoop {
        window: Window { lat_ms: Vec::new(), failed: 0, elapsed_s: 0.0 },
        checks: Vec::new(),
        spans: Vec::new(),
    };
    for one in per_client {
        merged.window.lat_ms.extend(one.window.lat_ms);
        merged.window.failed += one.window.failed;
        merged.window.elapsed_s = merged.window.elapsed_s.max(one.window.elapsed_s);
        merged.checks.extend(one.checks);
        merged.spans.extend(one.spans);
    }
    merged
}

/// `daemon_closed_tiny`: two loopback connections, closed loop.
fn run_daemon(daemon: Daemon, mut clients: Vec<Client>, args: &RunArgs) -> Outcome {
    let pool = image_pool(args.seed, 3 * 32 * 32);
    let run = daemon_closed_loop(&mut clients, &pool, args.seed, args.seconds, false);
    let rss_mb = peak_rss_mb();
    drop(clients);
    daemon.shutdown();
    let cfg = tiny_serve_config();
    let mut direct = InferenceSession::new(tiny_model(), cfg.minibatch, cfg.threads_per_replica)
        .expect("direct session builds");
    let correct = responses_match_direct(&mut direct, &pool, &run.checks);
    Outcome { window: run.window, images_per_op: 1, rss_mb, correct }
}

/// Run one workload with tracing off and report the end-to-end metrics.
pub fn run(args: &RunArgs) -> Report {
    let w = args.workload;
    let (system, setup_s) = timed_setup(w);
    let Outcome { window, images_per_op, rss_mb, correct } = match system {
        System::Infer(session) => run_infer(w, session, args),
        System::Train(net) => run_train(net, args),
        System::Serve(frontend) => run_serve(w, frontend, args),
        System::Daemon(daemon, clients) => run_daemon(daemon, clients, args),
    };
    let Window { mut lat_ms, failed, elapsed_s } = window;
    let succeeded = lat_ms.len() as u64;
    let attempted = succeeded + failed;
    lat_ms.sort_by(f64::total_cmp);
    eprintln!(
        "# window\tattempted={attempted}\tsucceeded={succeeded}\tfailed={failed}\t\
         latency_samples={succeeded}\ttail=p{}\tsupported=p{}",
        w.tail_percentile,
        stats::supported_percentile(lat_ms.len()),
    );
    // a refused or failed operation misses any latency limit
    let within = match w.slo_ms {
        Some(limit) => lat_ms.iter().filter(|ms| **ms <= limit).count() as u64,
        None => succeeded,
    };
    let images = succeeded as f64 * images_per_op as f64;
    let metrics = vec![
        ("setup_s".to_string(), setup_s),
        ("images_per_s".to_string(), images / elapsed_s),
        ("latency_p50_ms".to_string(), stats::percentile(&lat_ms, 50.0)),
        ("latency_tail_ms".to_string(), stats::percentile(&lat_ms, f64::from(w.tail_percentile))),
        ("within_slo_share".to_string(), within as f64 / attempted.max(1) as f64),
        ("peak_rss_mb".to_string(), rss_mb),
    ];
    Report { attempted, failed, correct, metrics }
}
