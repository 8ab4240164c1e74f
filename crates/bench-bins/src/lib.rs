//! Shared harness for the per-figure benchmark binaries.
//!
//! Every binary regenerates one table/figure of the paper (see
//! DESIGN.md §3): it runs the real engines on the host, reports GFLOPS
//! and fraction-of-host-peak, and prints the machine-model predictions
//! for the paper's SKX/KNM testbeds next to them so the paper's shapes
//! can be compared directly (DESIGN.md §2 is the per-experiment index).

pub mod int16_upd;
pub mod multinode;

use machine::MachineModel;
use parallel::ThreadPool;
use std::time::Instant;
use tensor::ConvShape;

/// Command-line-ish configuration shared by the binaries.
pub struct HarnessConfig {
    /// Minibatch for the layer benchmarks.
    pub minibatch: usize,
    /// Thread-team size.
    pub threads: usize,
    /// Timed iterations per measurement.
    pub iters: usize,
    /// Warmup iterations.
    pub warmup: usize,
}

impl HarnessConfig {
    /// Parse from `std::env::args`: `--minibatch N --iters I --full`.
    pub fn from_args() -> Self {
        let full = std::env::args().any(|a| a == "--full");
        let threads = arg_opt("--threads").unwrap_or_else(parallel::hardware_threads);
        Self {
            minibatch: arg_opt("--minibatch").unwrap_or(if full { threads } else { 4 }),
            threads,
            iters: arg_opt("--iters").unwrap_or(if full { 10 } else { 3 }),
            warmup: arg_opt("--warmup").unwrap_or(1),
        }
    }
}

/// Parse a `--key N` pair from `std::env::args`, if present.
pub fn arg_opt(key: &str) -> Option<usize> {
    arg_str(key).and_then(|v| v.parse().ok())
}

/// Parse a `--key value` pair from `std::env::args`, if present.
pub fn arg_str(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

/// Parse a `--key N` pair from `std::env::args`, with a default — for
/// binary-specific flags outside [`HarnessConfig`]'s common set.
pub fn arg_usize(key: &str, default: usize) -> usize {
    arg_opt(key).unwrap_or(default)
}

/// Measure seconds/iteration of `f` (after warmup).
pub fn time_it<F: FnMut()>(mut f: F, warmup: usize, iters: usize) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// GFLOPS of a conv pass at `secs` per iteration.
pub fn gflops(shape: &ConvShape, secs: f64) -> f64 {
    shape.flops() as f64 / secs / 1e9
}

/// Calibrate the host once per binary (measured FMA peak + stream).
pub fn calibrate_host(pool: &ThreadPool) -> MachineModel {
    let m = machine::host::host_model(pool);
    eprintln!(
        "# host: {} threads, measured peak {:.0} GFLOPS, stream {:.0} GB/s{}",
        m.cores,
        m.peak_gflops(),
        m.mem_bw_gbs,
        if jit::jit_available() { ", JIT kernels" } else { ", scalar kernels" }
    );
    m
}

/// Print one series row: `label, layer id, GFLOPS, %peak`.
pub fn print_row(figure: &str, series: &str, layer: usize, gf: f64, peak_frac: f64) {
    println!(
        "{figure}\t{series}\tlayer={layer}\tGFLOPS={gf:8.1}\tpct_peak={:5.1}",
        peak_frac * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive() {
        let mut x = 0u64;
        let t = time_it(
            || {
                x = std::hint::black_box(x + 1);
            },
            1,
            10,
        );
        assert!(t >= 0.0);
    }

    #[test]
    fn gflops_formula() {
        let s = ConvShape::new(1, 16, 16, 8, 8, 1, 1, 1, 0);
        let g = gflops(&s, 1e-9);
        assert!((g - s.flops() as f64).abs() < 1e-6);
    }
}
