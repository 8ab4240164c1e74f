//! `serve-daemon`: stand up the `anatomy-serve` TCP daemon from the
//! command line (DESIGN.md §9, operator guide in the README).
//!
//! Hosts one [`anatomy::daemon::Daemon`] with any number of named
//! models, each a small seeded CNN parametrized by input resolution
//! and class count — enough to exercise every wire path (inference,
//! stats, reload, load shed) without a training run. Weights can also
//! come from a `StateDict` file saved by a training job.
//!
//! Flags:
//!
//! * `--model NAME:HW:CLASSES` (repeatable) — host a model named
//!   `NAME` with `3×HW×HW` inputs and `CLASSES` output classes.
//!   Default when absent: `alpha:32:8` and `beta:24:5`.
//! * `--weights NAME=PATH` (repeatable) — serve the `StateDict` at
//!   `PATH` as `NAME`'s initial weights.
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7433`;
//!   port `0` picks an ephemeral port).
//! * `--addr-file PATH` — write the bound address to `PATH` once
//!   listening (how scripts discover an ephemeral port).
//! * `--serve-for SECS` — exit after that many seconds (default `0`:
//!   serve until killed).
//! * `--replicas/--threads/--minibatch/--queue-cap/--max-wait-ms` —
//!   per-model serving shape (defaults `1`/`2`/`4`/derived/`2`).
//! * `--tune off|measured` — plan-time autotuning level of the hosted
//!   convolutions (default: the `ANATOMY_TUNE` env var, else `off`).
//! * `--precision f32|int8` — numeric execution mode of the hosted
//!   replicas (default: the `ANATOMY_PRECISION` env var, else `f32`).
//!   At `int8` every model calibrates on a small seeded sample batch
//!   so all its convolutions join the quantized path.
//! * `--tune-cache PATH` — persistent tuning cache: loaded before the
//!   models build (a restart replays tuned winners with zero
//!   micro-bench runs) and saved back once hosting finishes.
//!
//! Prints the final stats snapshot on orderly exit.

use anatomy::daemon::{Daemon, DaemonConfig, ModelConfig, ModelRegistry};
use anatomy::serve::ServeConfig;
use anatomy::{ConvOpts, GraphBuilder, ModelSpec, Precision, StateDict, TuneLevel};
use bench_bins::{arg_str, arg_usize};
use std::time::Duration;

/// The daemon's stock topology: two fused conv+ReLU stages around a
/// max-pool, then GAP → FC → softmax, on `3 × hw × hw` inputs.
fn stock_model(hw: usize, classes: usize, seed: u64) -> Result<ModelSpec, anatomy::Error> {
    GraphBuilder::new()
        .seed(seed)
        .input("data", 3, hw, hw)
        .conv("conv1", ConvOpts::k(16).rs(3).pad(1).bias().relu())
        .max_pool("pool1", 2, 2, 0)
        .conv("conv2", ConvOpts::k(16).rs(3).pad(1).bias().relu())
        .gap("gap")
        .fc("logits", classes)
        .softmax("loss")
        .build()
}

/// Deterministic pseudo-random calibration pixels in `[-0.5, 0.5)` —
/// representative of normalized inputs, reproducible across restarts.
fn calib_batch(elems: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..elems)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// Collect every value of a repeatable `--key value` flag.
fn args_multi(key: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == key)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Parse one `NAME:HW:CLASSES` model spec triple.
fn parse_model(spec: &str) -> Result<(String, usize, usize), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [name, hw, classes] = parts.as_slice() else {
        return Err(format!("--model wants NAME:HW:CLASSES, got '{spec}'"));
    };
    let hw: usize = hw.parse().map_err(|_| format!("bad HW in --model '{spec}'"))?;
    let classes: usize = classes.parse().map_err(|_| format!("bad CLASSES in --model '{spec}'"))?;
    if hw < 4 || classes < 2 {
        return Err(format!("--model '{spec}': HW must be >= 4 and CLASSES >= 2"));
    }
    Ok((name.to_string(), hw, classes))
}

fn run() -> Result<(), String> {
    let addr = arg_str("--addr").unwrap_or_else(|| "127.0.0.1:7433".to_string());
    let addr_file = arg_str("--addr-file");
    let serve_for = arg_usize("--serve-for", 0);
    let replicas = arg_usize("--replicas", 1);
    let threads = arg_usize("--threads", 2);
    let minibatch = arg_usize("--minibatch", 4);
    let max_wait_ms = arg_usize("--max-wait-ms", 2);
    let queue_cap = arg_usize("--queue-cap", 0);
    let tune = match arg_str("--tune") {
        Some(v) => TuneLevel::parse(&v).map_err(|e| format!("--tune: {e}"))?,
        None => TuneLevel::from_env().unwrap_or_default(),
    };
    let precision = match arg_str("--precision") {
        Some(v) => Precision::parse(&v).map_err(|e| format!("--precision: {e}"))?,
        None => Precision::from_env().unwrap_or_default(),
    };
    let tune_cache = arg_str("--tune-cache");

    let mut specs = args_multi("--model");
    if specs.is_empty() {
        specs = vec!["alpha:32:8".to_string(), "beta:24:5".to_string()];
    }
    let mut weight_files: Vec<(String, String)> = Vec::new();
    for kv in args_multi("--weights") {
        let (name, path) =
            kv.split_once('=').ok_or_else(|| format!("--weights wants NAME=PATH, got '{kv}'"))?;
        weight_files.push((name.to_string(), path.to_string()));
    }

    let mut models = Vec::new();
    for (seed, spec) in specs.iter().enumerate() {
        let (name, hw, classes) = parse_model(spec)?;
        let model = stock_model(hw, classes, 0x5eed + seed as u64)
            .map_err(|e| format!("model '{name}': {e}"))?;
        let mut serve = ServeConfig::new(replicas, threads, minibatch)
            .with_max_wait(Duration::from_millis(max_wait_ms as u64))
            .with_tune(tune)
            .with_precision(precision);
        if precision == Precision::Int8 {
            // the stock models carry no batch norm, so the quantized
            // path needs measured activation ranges: calibrate every
            // replica on a reproducible seeded batch
            serve =
                serve.with_calibration(calib_batch(minibatch * 3 * hw * hw, 0xca11b + seed as u64));
        }
        if queue_cap > 0 {
            serve = serve.with_queue_cap(queue_cap);
        }
        let mut cfg =
            ModelConfig::new(&name, &model, serve).map_err(|e| format!("model '{name}': {e}"))?;
        if let Some((_, path)) = weight_files.iter().find(|(n, _)| *n == name) {
            let sd = StateDict::load(path).map_err(|e| format!("--weights {name}={path}: {e}"))?;
            cfg = cfg.with_weights(sd);
        }
        eprintln!("# hosting '{name}': 3x{hw}x{hw} -> {classes} classes ({})", precision.name());
        models.push(cfg);
    }

    // tuning cache first, models second: winners loaded from disk make
    // every tuned build below a pure replay (zero micro-bench runs)
    let mut registry = ModelRegistry::new();
    if let Some(path) = &tune_cache {
        if std::path::Path::new(path).exists() {
            let n = registry
                .cache()
                .load_tuning(path)
                .map_err(|e| format!("--tune-cache {path}: {e}"))?;
            eprintln!("# tuning cache: loaded {n} winners from {path}");
        }
    }
    for model in models {
        registry.host(model).map_err(|e| format!("host: {e}"))?;
    }
    if let Some(path) = &tune_cache {
        let n =
            registry.cache().save_tuning(path).map_err(|e| format!("--tune-cache {path}: {e}"))?;
        eprintln!("# tuning cache: saved {n} winners to {path}");
    }

    let daemon = Daemon::bind_registry(DaemonConfig::new(&addr), registry)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = daemon.local_addr();
    if let Some(path) = &addr_file {
        std::fs::write(path, bound.to_string()).map_err(|e| format!("--addr-file {path}: {e}"))?;
    }
    println!("anatomy-serve listening on {bound}");

    if serve_for == 0 {
        // serve until killed; the OS reclaims the threads on exit
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(serve_for as u64));
    let stats = daemon.shutdown();
    println!("--- final stats ---\n{stats}");
    Ok(())
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("serve-daemon: {msg}");
        std::process::exit(2);
    }
}
