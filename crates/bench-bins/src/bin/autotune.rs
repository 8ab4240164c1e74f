//! Autotuner benchmark: heuristic vs. tuned blocking on the ResNet-50
//! Table I and Inception-v3 layer populations (DESIGN.md §10).
//!
//! For every distinct shape the bin builds two forward plans through
//! one [`anatomy::conv::PlanCache`] — the Section II-B heuristic
//! blocking and the autotuned one — times both, and reports:
//!
//! * per-layer predicted vs. measured GFLOPS of the tuned plan (how
//!   well the traffic model that preselects the timed top-k
//!   anticipates the host), with the median relative model error;
//! * per-layer and aggregate heuristic→tuned speedup (a tuned plan
//!   losing to the heuristic beyond timing noise is the regression
//!   this bench exists to catch — apparent losses are re-measured
//!   best-of-two before they are reported);
//! * the cache's tuning counters (searches, micro-bench runs, tune
//!   wall-clock), demonstrating the tune-once-per-process contract.
//!
//! Output: one stdout row per layer plus `BENCH_autotune.json`.
//! `--tune off|measured` picks the level (default `measured`; any other
//! value exits with status 2; `off` times the heuristic against
//! itself), `--limit N` caps the layer count (0 = all).

use anatomy::conv::fuse::FuseCtx;
use anatomy::conv::{LayerOptions, PlanCache, TuneLevel};
use bench_bins::{arg_str, arg_usize, calibrate_host, gflops, time_it, HarnessConfig};
use parallel::ThreadPool;
use std::collections::HashSet;
use std::sync::Arc;
use tensor::{rng::SplitMix64, ConvShape};

/// One layer's complete comparison.
struct Row {
    label: String,
    shape: ConvShape,
    heuristic_gf: f64,
    tuned_gf: f64,
    predicted_gf: f64,
    tuned_blocking: String,
}

fn measure(
    layer: &anatomy::conv::ConvLayer,
    pool: &ThreadPool,
    cfg: &HarnessConfig,
    seed: u64,
) -> f64 {
    let mut input = layer.new_input();
    let mut weights = layer.new_filter();
    let mut output = layer.new_output();
    let mut rng = SplitMix64::new(seed);
    rng.fill_f32(input.as_mut_slice());
    rng.fill_f32(weights.as_mut_slice());
    let ctx = FuseCtx::default();
    let secs =
        time_it(|| layer.forward(pool, &input, &weights, &mut output, &ctx), cfg.warmup, cfg.iters);
    gflops(layer.shape(), secs)
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let tune = match arg_str("--tune") {
        Some(v) => TuneLevel::parse(&v).unwrap_or_else(|e| {
            eprintln!("autotune: --tune: {e}");
            std::process::exit(2);
        }),
        None => TuneLevel::Measured,
    };
    let limit = arg_usize("--limit", 0);

    let pool = Arc::new(ThreadPool::new(cfg.threads));
    let host = calibrate_host(&pool);

    // shape population: ResNet-50 Table I + the Inception-v3 layer
    // sweep, deduplicated (the two topologies share some geometries)
    let mut shapes: Vec<(String, ConvShape)> = Vec::new();
    let mut seen = HashSet::new();
    for (id, s) in topologies::resnet50_table1(cfg.minibatch) {
        if seen.insert(s) {
            shapes.push((format!("resnet50:{id}"), s));
        }
    }
    for (id, s) in topologies::inception_v3_layers(cfg.minibatch) {
        if seen.insert(s) {
            shapes.push((format!("inception:{id}"), s));
        }
    }
    if limit > 0 {
        let dropped = shapes.len().saturating_sub(limit);
        shapes.truncate(limit);
        if dropped > 0 {
            eprintln!("# --limit {limit}: skipping {dropped} layers");
        }
    }
    eprintln!(
        "# autotune: {} distinct layers, level {}, minibatch {}, {} threads",
        shapes.len(),
        tune.name(),
        cfg.minibatch,
        cfg.threads
    );

    // both variants plan through one cache: the tuned builds share its
    // tune store, so every (shape, machine, level) searches exactly once
    let cache = PlanCache::new();
    let base = LayerOptions::new(cfg.threads).with_machine(host.clone());
    let mut rows: Vec<Row> = Vec::new();
    for (i, (label, shape)) in shapes.iter().enumerate() {
        let heuristic = cache.get_or_build(*shape, base.clone());
        let tuned =
            cache.get_or_build(*shape, base.clone().with_tune(tune).with_pool(Arc::clone(&pool)));
        let seed = 0xA07u64 + i as u64;
        let mut heuristic_gf = measure(&heuristic, &pool, &cfg, seed);
        let mut tuned_gf = if tuned.blocking() == heuristic.blocking() {
            // the tuner kept the heuristic blocking: the two plans are
            // functionally identical, so timing them separately would
            // only report measurement noise as a phantom speedup/loss
            heuristic_gf
        } else {
            measure(&tuned, &pool, &cfg, seed)
        };
        // apparent loss: re-measure both sides in alternating rounds
        // and keep each side's best, so drift and one-off noise cannot
        // report a phantom regression
        for _ in 0..3 {
            if tuned_gf >= 0.98 * heuristic_gf {
                break;
            }
            heuristic_gf = heuristic_gf.max(measure(&heuristic, &pool, &cfg, seed));
            tuned_gf = tuned_gf.max(measure(&tuned, &pool, &cfg, seed));
        }
        let out = tuned.tune_outcome();
        let b = tuned.blocking();
        println!(
            "autotune\t{label}\t{shape}\theuristic={heuristic_gf:7.1}\ttuned={tuned_gf:7.1}\t\
             speedup={:.3}\tpredicted={:7.1}\tlevel={}",
            tuned_gf / heuristic_gf,
            out.predicted_gflops,
            out.level.name()
        );
        rows.push(Row {
            label: label.clone(),
            shape: *shape,
            heuristic_gf,
            tuned_gf,
            predicted_gf: out.predicted_gflops,
            tuned_blocking: format!("rbp{}xrbq{}xcb{}", b.rbp, b.rbq, b.cb_inner),
        });
    }

    let stats = cache.stats();
    // `off` never searches: its "tuned" plans are the heuristic ones
    let searched = if tune == TuneLevel::Heuristic { 0 } else { rows.len() };
    assert_eq!(
        stats.tune_runs, searched,
        "tune-once contract: one search per distinct (shape, machine, level)"
    );
    let mut errors: Vec<f64> =
        rows.iter().map(|r| (r.predicted_gf - r.tuned_gf).abs() / r.tuned_gf).collect();
    errors.sort_by(f64::total_cmp);
    let median_error = if errors.is_empty() { 0.0 } else { errors[errors.len() / 2] };
    let speedups: Vec<f64> = rows.iter().map(|r| r.tuned_gf / r.heuristic_gf).collect();
    let geomean =
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);

    println!(
        "autotune\tsummary\tlayers={}\tgeomean_speedup={geomean:.3}\tmin_speedup={min_speedup:.3}\t\
         median_model_error={median_error:.3}\ttune_runs={}\tmicro_runs={}\ttune_ms={:.0}",
        rows.len(),
        stats.tune_runs,
        stats.tune_micro_runs,
        stats.tune_time_ms
    );

    let mut layers_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        layers_json.push_str(&format!(
            "    {{\"layer\": \"{}\", \"shape\": \"{}\", \"predicted_gflops\": {:.2}, \
             \"measured_gflops\": {:.2}, \"model_error\": {:.4}, \"heuristic_gflops\": {:.2}, \
             \"speedup\": {:.4}, \"blocking\": \"{}\"}}{sep}\n",
            r.label,
            r.shape,
            r.predicted_gf,
            r.tuned_gf,
            (r.predicted_gf - r.tuned_gf).abs() / r.tuned_gf,
            r.heuristic_gf,
            r.tuned_gf / r.heuristic_gf,
            r.tuned_blocking,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"autotune\",\n  \"tune_level\": \"{}\",\n  \"minibatch\": {},\n  \
         \"threads\": {},\n  \"iters\": {},\n  \"layers\": {},\n  \
         \"predicted_vs_measured\": [\n{layers_json}  ],\n  \
         \"median_model_error\": {median_error:.4},\n  \
         \"tuned_speedup\": {geomean:.4},\n  \"min_speedup\": {min_speedup:.4},\n  \
         \"tune_runs\": {},\n  \"tune_micro_bench_runs\": {},\n  \"tune_time_ms\": {:.1}\n}}\n",
        tune.name(),
        cfg.minibatch,
        cfg.threads,
        cfg.iters,
        rows.len(),
        stats.tune_runs,
        stats.tune_micro_runs,
        stats.tune_time_ms,
    );
    std::fs::write("BENCH_autotune.json", json).expect("write BENCH_autotune.json");
    eprintln!("# wrote BENCH_autotune.json");
}
