//! Chaos end-to-end tests (`--features chaos`): seeded fault plans
//! injected at the replica, dispatcher, router and codec sites must
//! never hang a caller — every request resolves with an answer or a
//! typed error, supervised replicas restart, and recovered serving
//! stays bit-identical to an unfaulted run.
//!
//! The plan seed comes from `ANATOMY_CHAOS_SEED` (CI sweeps several
//! fixed seeds); `every`/`first` triggers are seed-independent, so
//! the structural assertions hold for any seed.
#![cfg(feature = "chaos")]

use anatomy::daemon::{Client, ClientConfig, Daemon, DaemonConfig, ModelConfig, RetryPolicy};
use anatomy::fault::{self, FaultAction, FaultPlan};
use anatomy::serve::{BatchingFrontend, ServeConfig};
use anatomy::{Error, InferenceSession};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

fn tiny_topology() -> &'static str {
    "input name=data c=3 h=8 w=8\n\
     conv name=c1 bottom=data k=16 r=3 s=3 pad=1 bias=1 relu=1\n\
     gap name=g bottom=c1\n\
     fc name=logits bottom=g k=5\n\
     softmaxloss name=loss bottom=logits\n"
}

const SAMPLE: usize = 3 * 8 * 8;

fn random_images(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = anatomy::tensor::rng::SplitMix64::new(seed);
    let mut v = vec![0.0f32; n * SAMPLE];
    rng.fill_f32(&mut v);
    v
}

/// What the frontend serves for a lone sample: the replica pads the
/// partial batch with zeros and the sample lands in row 0 — reproduce
/// exactly that against the direct session and return row 0.
fn expected_single(
    direct: &mut InferenceSession,
    sample: &[f32],
    minibatch: usize,
) -> (Vec<f32>, usize) {
    let mut flat = vec![0.0f32; minibatch * SAMPLE];
    flat[..SAMPLE].copy_from_slice(sample);
    let out = direct.run(&flat).unwrap();
    let classes = out.probs.len() / minibatch;
    (out.probs[..classes].to_vec(), out.top1[0])
}

fn chaos_seed() -> u64 {
    std::env::var("ANATOMY_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

/// The fault plan is process-global state: serialize every chaos test
/// behind one lock (recovering from poison — a failed test must not
/// wedge the rest of the suite), and keep injected panics out of the
/// test output.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> MutexGuard<'static, ()> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
    // take the lock first: clearing while another test still holds
    // it would disarm that test's plan mid-run
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

/// The textual plan grammar (the `ANATOMY_FAULT_PLAN` surface)
/// parses the documented forms and rejects garbage at install time.
#[test]
fn fault_plan_grammar_parses_and_rejects() {
    let _guard = chaos_guard();
    let plan = FaultPlan::parse(
        "seed=7;replica.batch=panic@every3;codec.read=io@p0.5;router.frame=delay:20ms@first2",
    )
    .unwrap();
    fault::install(&plan);
    assert!(fault::active());
    fault::clear();
    assert!(!fault::active());

    assert!(FaultPlan::parse("replica.batch=explode").is_err(), "unknown action");
    assert!(FaultPlan::parse("replica.batch=panic@sometimes").is_err(), "unknown trigger");
    assert!(FaultPlan::parse("codec.read=io@p1.5").is_err(), "probability out of range");
    assert!(FaultPlan::parse("seed=notanumber").is_err(), "bad seed");
    assert!(FaultPlan::parse("garbage").is_err(), "missing '='");
}

/// Replica panics on every 3rd batch: every request still resolves,
/// failures are typed, survivors are bit-identical to an unfaulted
/// direct session, the restart counters advance, and after
/// `fault::clear()` serving is fully healthy again.
#[test]
fn supervised_frontend_survives_replica_panics_bit_exact() {
    let _guard = chaos_guard();
    fault::install(&FaultPlan::seeded(chaos_seed()).entry(
        "replica.batch",
        FaultAction::Panic,
        "every3",
    ));

    let minibatch = 2;
    let mut direct = InferenceSession::new(tiny_topology(), minibatch, 1).unwrap();
    let cfg = ServeConfig::new(1, 1, minibatch)
        .with_max_wait(Duration::from_millis(1))
        .with_restart_policy(10, Duration::from_millis(1), Duration::from_millis(10));
    let frontend = BatchingFrontend::new(tiny_topology(), cfg).unwrap();

    // multi-threaded client traffic: 4 submitters × 10 single-sample
    // requests against the one supervised replica, each waiting with
    // a bound — proving "resolves", not "eventually resolves"
    let (threads, per) = (4usize, 10usize);
    let n = threads * per;
    let images = random_images(n, 0xC0FFEE ^ chaos_seed());
    let mut resolved: Vec<(usize, Option<anatomy::InferenceOutput>)> = Vec::new();
    std::thread::scope(|scope| {
        let (images, frontend) = (&images, &frontend);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for k in 0..per {
                        let i = t * per + k;
                        let sample = &images[i * SAMPLE..(i + 1) * SAMPLE];
                        let res = frontend
                            .submit(sample)
                            .and_then(|p| p.wait_timeout(Duration::from_secs(60)));
                        match res {
                            Ok(o) => out.push((i, Some(o))),
                            Err(Error::Serve(msg)) => {
                                assert!(msg.contains("panicked"), "unexpected failure: {msg}");
                                out.push((i, None));
                            }
                            Err(other) => panic!("sample {i}: unexpected error {other:?}"),
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            resolved.extend(h.join().unwrap());
        }
    });
    assert_eq!(resolved.len(), n, "every request must resolve");
    let (mut oks, mut fails) = (0usize, 0usize);
    for (i, out) in &resolved {
        match out {
            Some(out) => {
                let sample = &images[i * SAMPLE..(i + 1) * SAMPLE];
                let (probs, top1) = expected_single(&mut direct, sample, minibatch);
                assert_eq!(out.probs, probs, "sample {i}: survivor must stay bit-exact");
                assert_eq!(out.top1, vec![top1]);
                oks += 1;
            }
            None => fails += 1,
        }
    }
    assert!(oks > 0, "some requests must survive the chaos");
    assert!(fails > 0, "an every-3rd-batch panic plan must fail some requests");
    assert!(fault::fired("replica.batch") > 0);

    let stats = frontend.stats();
    assert!(stats.replica_panics > 0, "panic counter must advance");
    assert!(stats.replica_restarts > 0, "the supervisor must have restarted the replica");
    assert_eq!(stats.requests_failed, fails);
    assert!(!stats.failed, "recoverable panics must not enter the terminal state");

    // disarm: the recovered frontend must serve cleanly and bit-exact
    fault::clear();
    for i in 0..4 {
        let sample = &images[i * SAMPLE..(i + 1) * SAMPLE];
        let out = frontend.infer(sample).unwrap();
        let (probs, _) = expected_single(&mut direct, sample, minibatch);
        assert_eq!(out.probs, probs, "post-recovery sample {i} must stay bit-exact");
    }
    frontend.shutdown();
}

/// When the rebuild itself keeps panicking, the restart budget runs
/// out and the frontend enters the terminal Failed state: submit
/// returns a typed error instead of hanging.
#[test]
fn restart_exhaustion_enters_terminal_failed_state() {
    let _guard = chaos_guard();
    fault::install(
        &FaultPlan::seeded(chaos_seed())
            .entry("replica.batch", FaultAction::Panic, "first1")
            .entry("replica.rebuild", FaultAction::Panic, "always"),
    );

    let cfg = ServeConfig::new(1, 1, 2)
        .with_max_wait(Duration::from_millis(1))
        .with_restart_policy(2, Duration::from_millis(1), Duration::from_millis(2));
    let frontend = BatchingFrontend::new(tiny_topology(), cfg).unwrap();
    let image = vec![0.5f32; SAMPLE];

    // the first batch panics; its request must fail typed, not hang
    let err = frontend
        .submit(&image)
        .unwrap()
        .wait_timeout(Duration::from_secs(30))
        .expect_err("the poisoned batch must fail its request");
    assert!(matches!(err, Error::Serve(_)), "got {err:?}");

    // both rebuild attempts panic too — the supervisor must give up
    let deadline = Instant::now() + Duration::from_secs(10);
    while !frontend.failed() {
        assert!(Instant::now() < deadline, "terminal Failed state never reached");
        std::thread::sleep(Duration::from_millis(5));
    }
    let msg = match frontend.submit(&image) {
        Ok(_) => panic!("submit must be rejected when Failed"),
        Err(e) => e.to_string(),
    };
    assert!(msg.contains("Failed state"), "submit error must name the terminal state: {msg}");

    fault::clear();
    let stats = frontend.shutdown();
    assert!(stats.failed);
    assert!(stats.replica_panics > 0);
    assert_eq!(stats.replica_restarts, 0, "no rebuild ever succeeded");
}

/// Daemon end-to-end: a retrying client completes its whole workload
/// bit-exact while the hosted model's replica is being killed every
/// 4th batch, and the stats scrape reports the supervision counters.
#[test]
fn retry_client_completes_workload_under_replica_chaos() {
    let _guard = chaos_guard();
    fault::install(&FaultPlan::seeded(chaos_seed()).entry(
        "replica.batch",
        FaultAction::Panic,
        "every4",
    ));

    let minibatch = 2;
    let mut direct = InferenceSession::new(tiny_topology(), minibatch, 1).unwrap();
    let serve = ServeConfig::new(1, 1, minibatch)
        .with_max_wait(Duration::from_millis(1))
        .with_restart_policy(10, Duration::from_millis(1), Duration::from_millis(10));
    let daemon = Daemon::bind(
        DaemonConfig::loopback(),
        vec![ModelConfig::new("tiny", tiny_topology(), serve).unwrap()],
    )
    .unwrap();

    // server-side Internal failures (the killed batches) are only
    // retried with the opt-in, and infer is idempotent here
    let retry = RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
        ..RetryPolicy::default()
    }
    .with_server_failure_retry();
    let mut client = Client::connect_with(
        daemon.local_addr(),
        ClientConfig::new().with_timeouts(Duration::from_secs(30)).with_retry(retry),
    )
    .unwrap();

    let n = 20;
    let images = random_images(n, 0xD00D ^ chaos_seed());
    for i in 0..n {
        let sample = &images[i * SAMPLE..(i + 1) * SAMPLE];
        let out = client.infer("tiny", 1, sample).unwrap();
        let (probs, top1) = expected_single(&mut direct, sample, minibatch);
        assert_eq!(out.probs, probs, "request {i}: retried result must stay bit-exact");
        assert_eq!(out.top1, vec![top1]);
    }
    assert!(fault::fired("replica.batch") > 0, "the plan must actually have fired");

    fault::clear();
    let stats = daemon.shutdown();
    let panics = stat_value(&stats, "serve_model_replica_panics_total{model=\"tiny\"}");
    let restarts = stat_value(&stats, "serve_model_replica_restarts_total{model=\"tiny\"}");
    assert!(panics > 0, "stats must report the injected panics:\n{stats}");
    assert!(restarts > 0, "stats must report the restarts:\n{stats}");
}

/// Wire-level chaos: injected connection resets in the codec and
/// delays in the router must never hang anyone — requests resolve
/// with answers or typed errors, and the daemon serves cleanly once
/// the plan is disarmed.
#[test]
fn wire_faults_resolve_typed_and_daemon_survives() {
    let _guard = chaos_guard();
    fault::install(
        &FaultPlan::seeded(chaos_seed()).entry("codec.read", FaultAction::Io, "every9").entry(
            "router.frame",
            FaultAction::Delay(Duration::from_millis(20)),
            "every5",
        ),
    );

    let minibatch = 2;
    let mut direct = InferenceSession::new(tiny_topology(), minibatch, 1).unwrap();
    let serve = ServeConfig::new(1, 1, minibatch).with_max_wait(Duration::from_millis(1));
    let daemon = Daemon::bind(
        DaemonConfig::loopback(),
        vec![ModelConfig::new("tiny", tiny_topology(), serve).unwrap()],
    )
    .unwrap();

    // `codec.read` also fires inside this client's own frame reader
    // (the site is process-global), so even the handshake can be hit
    let config =
        ClientConfig::new().with_timeouts(Duration::from_secs(10)).with_retry(RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            ..RetryPolicy::default()
        });
    let mut client = None;
    for _ in 0..20 {
        match Client::connect_with(daemon.local_addr(), config.clone()) {
            Ok(c) => {
                client = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let mut client = client.expect("connect must eventually survive the injected resets");

    let n = 12;
    let images = random_images(n, 0xFEED ^ chaos_seed());
    let (mut oks, mut typed_errs) = (0usize, 0usize);
    for i in 0..n {
        let sample = &images[i * SAMPLE..(i + 1) * SAMPLE];
        let started = Instant::now();
        match client.infer("tiny", 1, sample) {
            Ok(out) => {
                let (probs, _) = expected_single(&mut direct, sample, minibatch);
                assert_eq!(out.probs, probs, "request {i} must stay bit-exact");
                oks += 1;
            }
            // a reset that lands after response bytes arrived is not
            // retried — it must surface as a typed error, fast
            Err(Error::Io(_) | Error::Serve(_) | Error::Timeout { .. }) => typed_errs += 1,
            Err(other) => panic!("request {i}: unexpected error class {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(30), "request {i} must not hang");
    }
    assert!(oks > 0, "the retrying client must complete most of the workload");
    assert!(fault::fired("codec.read") > 0);
    assert!(fault::fired("router.frame") > 0);
    let _ = typed_errs; // may be 0 when every reset lands pre-response

    // disarm: a fresh client round-trips cleanly and the daemon's
    // final scrape works
    fault::clear();
    let mut clean = Client::connect_with(daemon.local_addr(), config).unwrap();
    let out = clean.infer("tiny", 1, &images[..SAMPLE]).unwrap();
    assert_eq!(out.probs, expected_single(&mut direct, &images[..SAMPLE], minibatch).0);
    let stats = daemon.shutdown();
    assert!(stats.contains("serve_connections_total"));
}

/// Pull `name value` out of a stats-text snapshot.
fn stat_value(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|rest| rest.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("stats line '{name}' missing in:\n{stats}"))
}
