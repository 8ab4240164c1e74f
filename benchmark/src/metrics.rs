//! The names this benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` declares
//! the same names; the ledger (`run.py`) compares the two through
//! `--list`, and every run checks what it emits against these tables.

/// Compute threads of every replica, session and network (`nproc` is 2
/// on the reference sandbox); load generators use at most as many.
pub const T: usize = 2;

/// Batch size of the three `resnet50_*` closed loops and the ladder.
pub const MINIBATCH: usize = 4;

/// A benchmark workload (README.md says why each exists).
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// The percentile `latency_tail_ms` reports on this workload: the
    /// highest the percentile rule supports at the workload's expected
    /// sample count in one window (checked on every run).
    pub tail_percentile: u32,
    /// Latency limit of `within_slo_share` in ms; `None` where the
    /// workload is an offline batch loop with no limit to meet.
    pub slo_ms: Option<f64>,
    /// Arrival rate of an open-loop workload, requests per second; the
    /// name's last `_`-separated part (`r60`) tags its `serve.*` metrics.
    pub rate_per_s: Option<f64>,
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload { name: "resnet50_infer_f32", tail_percentile: 75, slo_ms: None, rate_per_s: None },
    Workload { name: "resnet50_infer_int8", tail_percentile: 50, slo_ms: None, rate_per_s: None },
    Workload { name: "resnet50_train", tail_percentile: 50, slo_ms: None, rate_per_s: None },
    Workload {
        name: "serve_open_resnet50_r60",
        tail_percentile: 95,
        slo_ms: Some(150.0),
        rate_per_s: Some(60.0),
    },
    Workload {
        name: "serve_open_resnet50_r100",
        tail_percentile: 95,
        slo_ms: Some(150.0),
        rate_per_s: Some(100.0),
    },
    Workload {
        name: "daemon_closed_tiny",
        tail_percentile: 99,
        slo_ms: Some(2.0),
        rate_per_s: None,
    },
];

/// The open-loop workloads as `(tag, requests per second)`.
pub fn open_loop_rates() -> impl Iterator<Item = (&'static str, f64)> {
    WORKLOADS.iter().filter_map(|w| Some((w.name.rsplit('_').next()?, w.rate_per_s?)))
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics `(name, unit)`, printed by every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("images_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("within_slo_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Table-I layer ids as they appear in metric names (`L01`…`L20`).
pub fn layer_tag(id: usize) -> String {
    format!("L{id:02}")
}

/// The four standalone convolution passes: `(tag, rate suffix, unit)`.
pub const CONV_PASSES: [(&str, &str, &str); 4] = [
    ("fwd", "gflops", "GFLOP/s"),
    ("q8", "gops", "GOP/s"),
    ("bwd", "gflops", "GFLOP/s"),
    ("upd", "gflops", "GFLOP/s"),
];

/// Per-layer metrics `(name, unit)`, printed by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("machine.peak_gflops", "GFLOP/s");
    add("machine.stream_gbs", "GB/s");
    for (pass, rate, unit) in CONV_PASSES {
        for id in 1..=20 {
            add(&format!("conv.{pass}.{}.{rate}", layer_tag(id)), unit);
        }
        add(&format!("conv.{pass}.pct_peak"), "%");
    }
    add("conv.fwd.pct_predicted", "%");
    add("conv.bwd.fallback_layers", "count");
    add("conv.plan_build_ms", "ms");
    add("conv.plan_cache_hit_rate", "share");
    add("conv.kernel_cache_entries", "count");
    add("kver.kernels_verified", "count");
    add("tensor.nchw_to_blocked_gbs", "GB/s");
    add("tensor.quantize_gbs", "GB/s");
    add("parallel.fork_join_us", "us");
    add("parallel.barrier_us", "us");
    for prefix in ["gxm.infer", "gxm.int8"] {
        add(&format!("{prefix}.fwd_ms"), "ms");
        add(&format!("{prefix}.nonconv_share"), "share");
    }
    for phase in ["fwd", "bwd", "upd", "sgd", "unexplained"] {
        add(&format!("gxm.train.{phase}_ms"), "ms");
    }
    add("gxm.train.nonconv_share", "share");
    add("session.run_ms", "ms");
    add("session.overhead_us", "us");
    add("serve.infer_ms", "ms");
    add("serve.overhead_us", "us");
    add("serve.partial_batch_cost_ratio", "ratio");
    add("serve.stats_poll_us", "us");
    for (tag, _) in open_loop_rates() {
        add(&format!("serve.occupancy_{tag}"), "share");
        add(&format!("serve.deadline_flush_share_{tag}"), "share");
    }
    add("serve.batches_per_s_r100", "1/s");
    add("serve.generator_lag_p99_ms", "ms");
    add("daemon.infer_ms", "ms");
    add("daemon.overhead_us", "us");
    add("daemon.codec_encode_gbs", "GB/s");
    add("daemon.codec_parse_gbs", "GB/s");
    add("daemon.connect_ms", "ms");
    add("daemon.stats_roundtrip_us", "us");
    add("daemon.reload_ms", "ms");
    add("trace.overhead_pct", "%");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_fit_the_benchmark_contract() {
        let names_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16);
        let layers = per_layer();
        assert_eq!(layers.len(), 126);
        assert!(layers.len() <= 128);
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.0));
        all.extend(layers.iter().map(|m| m.0.as_str()));
        assert!(all.iter().all(|n| names_ok(n)));
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used once");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }
}
