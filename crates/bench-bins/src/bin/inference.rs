//! Serving benchmark: forward-only ResNet-50 (and optionally the
//! Inception mixed-block graph) through the `InferenceSession` facade.
//!
//! Three executors run the same bn-graph back to back:
//!
//! * **fused** — the inference fusion pass folds every eligible BN's
//!   frozen statistics into its producer convolution (Section II-G's
//!   cache-hot APPLY carries BN + residual + ReLU);
//! * **unfused** — every BN runs as a standalone frozen-stats
//!   full-tensor pass (the reference executor);
//! * **int8** — the fused executor at `Precision::Int8`: every
//!   range-derivable convolution quantizes its input per channel,
//!   runs the Section II-K int8/VNNI kernels and requantizes in the
//!   fused APPLY, after a one-batch calibration pass (DESIGN.md §11).
//!
//! Reports images/second for all paths, the fused-node coverage
//! (`folded_bn / bn_nodes`), the int8 conv coverage
//! (`quantized_convs / conv_nodes`), the int8-vs-f32 accuracy drift
//! (top-1 agreement and relative probability L2), and the plan-cache
//! hit rate, on stdout and as `BENCH_inference.json` (see DESIGN.md
//! §3 for the methodology) — so every PR's perf trajectory records
//! the fusion and quantization speedups.
//!
//! `--hw N` sets the input resolution (default 64; `--hw 224 --full`
//! for the paper geometry), `--topology inception` switches graphs.

use anatomy::{InferenceSession, Precision, TuneLevel};
use bench_bins::{arg_str, arg_usize, HarnessConfig};
use std::sync::Arc;
use std::time::Instant;

/// Measured throughput of one executor.
struct Measured {
    imgs_per_s: f64,
    setup_s: f64,
}

fn run_side(session: &mut InferenceSession, cfg: &HarnessConfig, in_hw: usize) -> f64 {
    let mut rng = tensor::rng::SplitMix64::new(2024);
    let mut batch = vec![0.0f32; cfg.minibatch * 3 * in_hw * in_hw];
    for _ in 0..cfg.warmup {
        rng.fill_f32(&mut batch);
        session.run(&batch).expect("batch sized to the session");
    }
    let t0 = Instant::now();
    for _ in 0..cfg.iters {
        rng.fill_f32(&mut batch);
        session.run(&batch).expect("batch sized to the session");
    }
    (cfg.iters * cfg.minibatch) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let inception = arg_str("--topology").as_deref() == Some("inception");
    let hw = arg_usize("--hw", 64);
    let classes = 100usize;

    let (name, text, in_hw) = if inception {
        ("inception_mixed", topologies::inception_v3_model_sized(hw.max(31), classes), hw.max(31))
    } else {
        ("resnet50", topologies::resnet50_model(hw, classes), hw)
    };
    eprintln!("# building {name} at {in_hw}x{in_hw}, minibatch {}", cfg.minibatch);

    // fused executor: BN folded into the convolutions
    let t0 = Instant::now();
    let mut fused =
        InferenceSession::new(&text, cfg.minibatch, cfg.threads).expect("topology parses");
    let fused_setup = t0.elapsed().as_secs_f64();
    let stats = fused.cache_stats();
    let (bn_nodes, folded) = (fused.network().bn_node_count(), fused.network().folded_bn_count());
    eprintln!(
        "# fused setup {:.2}s: {} plans (hit rate {:.0}%), {} of {} bn nodes folded, {} activation slots",
        fused_setup,
        stats.entries,
        stats.hit_rate() * 100.0,
        folded,
        bn_nodes,
        fused.network().activation_slot_count(),
    );

    // unfused reference: standalone frozen-stats BN passes
    let t0 = Instant::now();
    let mut unfused =
        InferenceSession::new_unfused(&text, cfg.minibatch, cfg.threads).expect("topology parses");
    let unfused_setup = t0.elapsed().as_secs_f64();

    // int8 executor: the fused graph at reduced precision, sharing the
    // fused session's pool and plan cache (the precision-keyed cache
    // keeps both plan sets apart; f32 fallback plans hit)
    let t0 = Instant::now();
    let mut int8 = InferenceSession::with_shared_quantized(
        &text,
        cfg.minibatch,
        Arc::clone(fused.pool()),
        fused.cache().clone(),
        TuneLevel::Heuristic,
        Precision::Int8,
    )
    .expect("topology parses");
    let mut calib = vec![0.0f32; cfg.minibatch * 3 * in_hw * in_hw];
    tensor::rng::SplitMix64::new(7).fill_f32(&mut calib);
    int8.calibrate(&calib, cfg.minibatch).expect("int8 session calibrates");
    let int8_setup = t0.elapsed().as_secs_f64();
    let (conv_nodes, quant_convs) = (int8.conv_node_count(), int8.quantized_conv_count());
    let int8_coverage = if conv_nodes == 0 { 1.0 } else { quant_convs as f64 / conv_nodes as f64 };
    eprintln!(
        "# int8 setup {:.2}s: {} of {} convs quantized ({:.0}%)",
        int8_setup,
        quant_convs,
        conv_nodes,
        int8_coverage * 100.0
    );

    // accuracy drift on one fixed batch: how far int8 probabilities
    // move from the f32-fused oracle, and whether top-1 holds
    let mut probe = vec![0.0f32; cfg.minibatch * 3 * in_hw * in_hw];
    tensor::rng::SplitMix64::new(2024).fill_f32(&mut probe);
    let of = fused.run(&probe).expect("probe sized to the session");
    let oq = int8.run(&probe).expect("probe sized to the session");
    let agree =
        of.top1.iter().zip(&oq.top1).filter(|(a, b)| a == b).count() as f64 / of.top1.len() as f64;
    let (mut d2, mut n2) = (0.0f64, 0.0f64);
    for (a, b) in of.probs.iter().zip(&oq.probs) {
        d2 += ((a - b) as f64).powi(2);
        n2 += (*a as f64).powi(2);
    }
    let prob_l2 = if n2 == 0.0 { 0.0 } else { (d2 / n2).sqrt() };

    let f = Measured { imgs_per_s: run_side(&mut fused, &cfg, in_hw), setup_s: fused_setup };
    let u = Measured { imgs_per_s: run_side(&mut unfused, &cfg, in_hw), setup_s: unfused_setup };
    let q = Measured { imgs_per_s: run_side(&mut int8, &cfg, in_hw), setup_s: int8_setup };
    let speedup = f.imgs_per_s / u.imgs_per_s;
    let int8_speedup = q.imgs_per_s / f.imgs_per_s;
    let coverage = if bn_nodes == 0 { 1.0 } else { folded as f64 / bn_nodes as f64 };

    println!(
        "inference\t{name}\thw={in_hw}\tminibatch={}\tfused_imgs_per_s={:8.1}\tunfused_imgs_per_s={:8.1}\tint8_imgs_per_s={:8.1}\tspeedup={speedup:.3}\tint8_speedup={int8_speedup:.3}\tbn_coverage={coverage:.2}\tint8_coverage={int8_coverage:.2}\ttop1_agreement={agree:.2}\tcache_hit_rate={:.3}",
        cfg.minibatch,
        f.imgs_per_s,
        u.imgs_per_s,
        q.imgs_per_s,
        stats.hit_rate()
    );

    // refreshed after the int8 build so the per-precision plan counts
    // cover both executors sharing the cache
    let final_stats = fused.cache_stats();
    let json = format!(
        "{{\n  \"bench\": \"inference\",\n  \"topology\": \"{name}\",\n  \"hw\": {in_hw},\n  \
         \"minibatch\": {},\n  \"threads\": {},\n  \"iters\": {},\n  \"setup_seconds\": {:.4},\n  \
         \"images_per_second\": {:.2},\n  \"unfused\": {{\n    \"setup_seconds\": {:.4},\n    \
         \"images_per_second\": {:.2}\n  }},\n  \"int8\": {{\n    \"setup_seconds\": {:.4},\n    \
         \"images_per_second\": {:.2}\n  }},\n  \"fused_speedup\": {speedup:.4},\n  \
         \"int8_speedup\": {int8_speedup:.4},\n  \
         \"bn_nodes\": {bn_nodes},\n  \"folded_bn_nodes\": {folded},\n  \
         \"fused_bn_coverage\": {coverage:.4},\n  \
         \"conv_nodes\": {conv_nodes},\n  \"quantized_conv_nodes\": {quant_convs},\n  \
         \"int8_coverage\": {int8_coverage:.4},\n  \
         \"int8_top1_agreement\": {agree:.4},\n  \"int8_prob_l2\": {prob_l2:.6},\n  \
         \"plan_cache\": {{\n    \"hits\": {},\n    \
         \"misses\": {},\n    \"entries\": {},\n    \"hit_rate\": {:.4},\n    \
         \"f32_plans\": {},\n    \"int8_plans\": {}\n  }},\n  \
         \"activation_slots\": {},\n  \"training_state_bytes\": {}\n}}\n",
        cfg.minibatch,
        cfg.threads,
        cfg.iters,
        f.setup_s,
        f.imgs_per_s,
        u.setup_s,
        u.imgs_per_s,
        q.setup_s,
        q.imgs_per_s,
        final_stats.hits,
        final_stats.misses,
        final_stats.entries,
        final_stats.hit_rate(),
        final_stats.f32_plans,
        final_stats.int8_plans,
        fused.network().activation_slot_count(),
        fused.network().training_state_bytes(),
    );
    std::fs::write("BENCH_inference.json", &json).expect("write BENCH_inference.json");
    eprintln!("# wrote BENCH_inference.json");
}
