//! Multi-node data-parallel training (Fig. 9) — the MLSL/Omnipath
//! substitution (DESIGN.md §2), a paper-figure artifact: `fig9` is its
//! only caller, nothing is served or trained through it.
//!
//! Three components:
//!
//! * [`Fabric`] — the α–β interconnect model. The paper's end-to-end
//!   runs overlap the weight-gradient allreduce with the remaining
//!   backward compute ("the allreduce of the gradient weights in the
//!   backward pass is completely overlapped by using MLSL") and set
//!   aside a few cores per node to drive the fabric (8 of 72 on KNM,
//!   4 of 56 on SKX). The model is exactly those two mechanisms: a
//!   ring allreduce with per-message latency `alpha` and link
//!   bandwidth `beta`, and an overlap window equal to the
//!   backward+update compute time — only the part of the allreduce
//!   that does not fit in the window shows up as iteration-time
//!   overhead.
//! * [`simulate_strong_scaling`] — the timing model: given a measured
//!   single-node step time, the gradient payload, and the fabric
//!   parameters, compute images/second for 1..=N nodes with the
//!   allreduce overlapped behind backward compute (MLSL's key
//!   property; the paper reports ≈90% parallel efficiency at 16
//!   nodes). Cores set aside to drive the fabric scale the compute
//!   time up by the core ratio.
//! * [`allreduce_gradients`] — the semantic check: data-parallel
//!   training is *equivalent* to large-batch training when gradients
//!   are averaged; this helper averages per-shard gradients so tests
//!   can verify the equivalence.

/// Interconnect parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fabric {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Link bandwidth in bytes per second (unidirectional).
    pub beta: f64,
    /// Cores per node set aside to drive the fabric.
    pub comm_cores: usize,
}

impl Fabric {
    /// 100 Gbit/s Omnipath-like fabric as used by the testbeds.
    pub fn omnipath(comm_cores: usize) -> Self {
        Self { alpha: 5e-6, beta: 12.5e9, comm_cores }
    }

    /// Ring-allreduce time for `bytes` over `nodes` nodes.
    ///
    /// Classic cost: `2·(n−1)` steps, each moving `bytes/n` and paying
    /// one latency.
    pub fn allreduce_seconds(&self, nodes: usize, bytes: f64) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let steps = 2 * (nodes - 1);
        steps as f64 * (self.alpha + bytes / nodes as f64 / self.beta)
    }

    /// Iteration-time overhead after overlapping the allreduce with
    /// `overlap_window` seconds of independent compute.
    pub fn exposed_seconds(&self, nodes: usize, bytes: f64, overlap_window: f64) -> f64 {
        (self.allreduce_seconds(nodes, bytes) - overlap_window).max(0.0)
    }

    /// Strong-scaling model: images/second on `nodes` nodes given the
    /// single-node step time (`t_step` seconds for `minibatch` images,
    /// already on the reduced compute-core count) and the gradient size.
    ///
    /// Data parallelism splits the global minibatch; each node computes
    /// a full step on its shard and allreduces `grad_bytes`.
    pub fn strong_scale_imgs_per_s(
        &self,
        nodes: usize,
        t_step: f64,
        minibatch: usize,
        grad_bytes: f64,
    ) -> f64 {
        // overlap window: the backward part of the step (≈ 2/3 of it:
        // bwd + upd of the three passes) on this node
        let window = t_step * 2.0 / 3.0;
        let t_iter = t_step + self.exposed_seconds(nodes, grad_bytes, window);
        nodes as f64 * minibatch as f64 / t_iter
    }
}

/// One point of the strong-scaling curve.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Node count.
    pub nodes: usize,
    /// Aggregate images/second.
    pub imgs_per_s: f64,
    /// Parallel efficiency vs. 1 node.
    pub efficiency: f64,
}

/// Strong-scaling model: `t_step_1node` is the measured step time of
/// one node on its *full* core count for `minibatch` images;
/// `comm_core_frac` is the fraction of cores surrendered to the fabric.
pub fn simulate_strong_scaling(
    fabric: &Fabric,
    t_step_1node: f64,
    minibatch: usize,
    grad_bytes: f64,
    comm_core_frac: f64,
    max_nodes: usize,
) -> Vec<ScalePoint> {
    // a single node uses every core; multi-node runs surrender
    // comm_core_frac of the cores to drive the fabric (8/72 on KNM,
    // 4/56 on SKX in the paper), which is the main efficiency cost —
    // the allreduce itself hides behind backward compute
    let t_step_comm = t_step_1node / (1.0 - comm_core_frac);
    let single_full = minibatch as f64 / t_step_1node;
    let mut out = Vec::new();
    let mut nodes = 1usize;
    while nodes <= max_nodes {
        let imgs = if nodes == 1 {
            single_full
        } else {
            fabric.strong_scale_imgs_per_s(nodes, t_step_comm, minibatch, grad_bytes)
        };
        out.push(ScalePoint {
            nodes,
            imgs_per_s: imgs,
            efficiency: imgs / (single_full * nodes as f64),
        });
        nodes *= 2;
    }
    out
}

/// Average `shards` gradient vectors element-wise into each shard
/// (an in-process allreduce).
pub fn allreduce_gradients(shards: &mut [Vec<f32>]) {
    if shards.len() <= 1 {
        return;
    }
    let len = shards[0].len();
    assert!(shards.iter().all(|s| s.len() == len));
    let inv = 1.0 / shards.len() as f32;
    for i in 0..len {
        let sum: f32 = shards.iter().map(|s| s[i]).sum();
        for s in shards.iter_mut() {
            s[i] = sum * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_has_no_comm() {
        let f = Fabric::omnipath(4);
        assert_eq!(f.allreduce_seconds(1, 1e9), 0.0);
    }

    #[test]
    fn allreduce_scales_with_bytes() {
        let f = Fabric::omnipath(4);
        let t1 = f.allreduce_seconds(8, 100e6);
        let t2 = f.allreduce_seconds(8, 200e6);
        assert!(t2 > t1 && t2 < 2.2 * t1);
    }

    #[test]
    fn resnet_gradients_overlap_fully_at_16_nodes() {
        // ResNet-50: ~25.5M parameters = 102 MB of f32 gradients.
        // Single-node step time at ~136 img/s with N=28: ~0.2 s.
        let f = Fabric::omnipath(4);
        let allreduce = f.allreduce_seconds(16, 102e6);
        let window = 0.2 * 2.0 / 3.0;
        assert!(allreduce < window, "allreduce {allreduce}s should hide inside window {window}s");
    }

    #[test]
    fn strong_scaling_efficiency_is_about_90_percent() {
        // With comm cores set aside, t_step grows slightly; the paper
        // reports ≈90% parallel efficiency at 16 nodes.
        let f = Fabric::omnipath(4);
        let t_step = 0.2; // seconds for N=28 on the reduced core count
        let single = f.strong_scale_imgs_per_s(1, t_step, 28, 102e6);
        let sixteen = f.strong_scale_imgs_per_s(16, t_step, 28, 102e6);
        let eff = sixteen / (16.0 * single);
        assert!(eff > 0.85 && eff <= 1.0, "efficiency {eff}");
    }

    #[test]
    fn scaling_efficiency_matches_paper_band() {
        // ResNet-50-like: 102 MB gradients, 0.2 s steps, 4/56 cores
        let fabric = Fabric::omnipath(4);
        let pts = simulate_strong_scaling(&fabric, 0.2, 28, 102e6, 4.0 / 56.0, 16);
        assert_eq!(pts.len(), 5); // 1,2,4,8,16
        let last = pts.last().unwrap();
        assert_eq!(last.nodes, 16);
        assert!(last.efficiency > 0.85 && last.efficiency < 0.97, "efficiency {}", last.efficiency);
        // throughput grows monotonically
        for w in pts.windows(2) {
            assert!(w[1].imgs_per_s > w[0].imgs_per_s);
        }
    }

    #[test]
    fn tiny_steps_expose_the_allreduce() {
        // if compute is nearly free, communication dominates and
        // efficiency must drop well below 1
        let fabric = Fabric::omnipath(4);
        let pts = simulate_strong_scaling(&fabric, 0.001, 28, 500e6, 0.1, 16);
        let last = pts.last().unwrap();
        assert!(last.efficiency < 0.5, "efficiency {}", last.efficiency);
    }

    #[test]
    fn allreduce_averages() {
        let mut shards = vec![vec![1.0f32, 2.0], vec![3.0, 6.0]];
        allreduce_gradients(&mut shards);
        assert_eq!(shards[0], vec![2.0, 4.0]);
        assert_eq!(shards[1], vec![2.0, 4.0]);
    }

    #[test]
    fn data_parallel_allreduce_is_average() {
        // semantic core of Fig. 9's data parallelism: averaged shard
        // gradients equal the large-batch gradient (here on raw vectors;
        // the network-level equivalence follows from gradient linearity)
        let g1: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let g2: Vec<f32> = (0..64).map(|i| (63 - i) as f32).collect();
        let mut shards = vec![g1.clone(), g2.clone()];
        allreduce_gradients(&mut shards);
        for i in 0..64 {
            let want = (g1[i] + g2[i]) / 2.0;
            assert_eq!(shards[0][i], want);
            assert_eq!(shards[1][i], want);
        }
    }
}
