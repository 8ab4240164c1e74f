//! Layer-plan cache: setup once per *distinct* layer, replay forever.
//!
//! The paper's setup/replay split (Section II-H) makes a fully planned
//! [`ConvLayer`] a natural unit of reuse: everything the setup phase
//! produces — JIT code buffers, dryrun offset streams, the backward
//! duality plan, the weight-update streams — depends only on the
//! normalized `(ConvShape, LayerOptions)` pair. ResNet-50 instantiates
//! 53 convolution nodes over ~20 distinct shapes; building the graph
//! through a [`PlanCache`] performs one JIT + dryrun per distinct
//! shape and hands every repeat an `Arc` to the shared plan (the
//! handle-based primitive model of cuDNN).
//!
//! The cache is explicit and shareable (clone it, it is one cache):
//! a serving process keeps one `PlanCache` next to its `ThreadPool`
//! and builds every network through it. A second, process-wide cache
//! below this one dedupes individual kernel code buffers across
//! *different* layer shapes (see [`crate::backend::kernel_cache_stats`]).

use crate::backend::Backend;
use crate::fuse::FusedOp;
use crate::layer::{ConvLayer, LayerOptions, Precision};
use crate::tune::{TuneLevel, TuneStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tensor::ConvShape;

/// Normalized cache key: every input of the layer-setup pipeline that
/// can change the generated plan.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct LayerKey {
    shape: ConvShape,
    threads: usize,
    backend: Backend,
    prefetch: bool,
    fuse: FusedOp,
    /// Resolved physical input padding (the `None` default resolves to
    /// `shape.pad`, so explicit-default and implicit requests unify).
    input_pad: usize,
    /// Requested dO padding (`None` = duality-optimal; resolving it
    /// would need the bwd plan, so the request itself is the key).
    dout_pad: Option<usize>,
    /// Physical output padding of the forward plan. Folded-BN
    /// inference plans write padded outputs; keying on it keeps them
    /// from ever colliding with the pad-0 training plans of the same
    /// shape.
    out_pad: usize,
    /// Fingerprint of the tuner's machine model (the same hash the
    /// tuning store keys on).
    machine: u64,
    /// Tuning level: a `Measured`-tuned plan and the heuristic plan of
    /// the same shape are different plans and must not collide.
    tune: TuneLevel,
    /// Numeric execution mode: an int8 plan (f32 plans + quant plan)
    /// and the plain f32 plan of the same shape must not collide.
    precision: Precision,
    /// Accumulation-chain bound of the int8 plan. Normalized to 0 at
    /// `F32` (where it is ignored), so chain-length variants of f32
    /// requests unify while int8 variants stay distinct.
    chain_limit: usize,
}

impl LayerKey {
    fn new(shape: &ConvShape, opts: &LayerOptions) -> Self {
        Self {
            shape: *shape,
            threads: opts.threads,
            backend: opts.backend,
            prefetch: opts.prefetch,
            fuse: opts.fuse,
            input_pad: opts.input_pad.unwrap_or(shape.pad),
            dout_pad: opts.dout_pad,
            out_pad: opts.out_pad,
            machine: opts.machine.fingerprint(),
            tune: opts.tune,
            precision: opts.precision,
            chain_limit: if opts.precision == Precision::Int8 { opts.chain_limit } else { 0 },
        }
    }
}

/// Hit/miss counters of one [`FusedOp`] flavour (an element of
/// [`PlanCacheStats::per_op`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FusedOpCacheStats {
    /// Lookups for plans with this fused op served from the cache.
    pub hits: usize,
    /// Lookups for plans with this fused op that ran the setup
    /// pipeline.
    pub misses: usize,
}

/// Snapshot of a cache's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanCacheStats {
    /// Lookups served by an existing plan (no JIT, no dryrun).
    pub hits: usize,
    /// Lookups that ran the full setup pipeline.
    pub misses: usize,
    /// Distinct plans currently held.
    pub entries: usize,
    /// Hits/misses broken out per requested [`FusedOp`], indexed by
    /// [`FusedOp::index`] (i.e. parallel to [`FusedOp::ALL`]) — makes
    /// the cache behaviour of folded-BN inference plans observable
    /// next to the plain training plans.
    pub per_op: [FusedOpCacheStats; FusedOp::ALL.len()],
    /// Plans built with a measured blocking (`Measured` outcome).
    pub tuned_plans: usize,
    /// Plans built with the heuristic blocking.
    pub heuristic_plans: usize,
    /// Tuning searches run through this cache's [`TuneStore`] (store
    /// hits and disk-loaded winners don't count).
    pub tune_runs: usize,
    /// Candidate micro-bench measurements performed (0 when every
    /// winner came from the on-disk tuning cache).
    pub tune_micro_runs: usize,
    /// Total wall-clock spent tuning, in milliseconds.
    pub tune_time_ms: f64,
    /// Plans built at [`Precision::F32`].
    pub f32_plans: usize,
    /// Plans built at [`Precision::Int8`] (f32 plans + a fused
    /// quantized forward plan).
    pub int8_plans: usize,
}

impl PlanCacheStats {
    /// Fraction of lookups served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters recorded for one fused-op flavour.
    pub fn for_op(&self, op: FusedOp) -> FusedOpCacheStats {
        self.per_op[op.index()]
    }
}

/// One-call health snapshot of *both* cache tiers the serving path
/// relies on: this plan cache (whole-layer plans) and the process-wide
/// kernel code cache below it (individual generated code buffers,
/// shared across different layer shapes).
#[derive(Clone, Copy, Debug, Default)]
pub struct CombinedCacheStats {
    /// Whole-layer plan cache counters (per [`PlanCache`] instance).
    pub plans: PlanCacheStats,
    /// Process-wide kernel code cache counters
    /// ([`crate::backend::kernel_cache_stats`]).
    pub kernels: crate::backend::KernelCacheStats,
}

/// One hit + one miss counter per [`FusedOp`] variant.
#[derive(Default)]
struct PerOpCounters {
    hits: [AtomicUsize; FusedOp::ALL.len()],
    misses: [AtomicUsize; FusedOp::ALL.len()],
}

struct Inner {
    plans: Mutex<HashMap<LayerKey, Arc<ConvLayer>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    per_op: PerOpCounters,
    tune_store: TuneStore,
    tuned_plans: AtomicUsize,
    heuristic_plans: AtomicUsize,
    f32_plans: AtomicUsize,
    int8_plans: AtomicUsize,
}

/// A shareable cache of fully planned convolution layers.
///
/// Cloning the handle shares the cache (graph executors, inference
/// sessions and benchmarks can all feed one instance).
#[derive(Clone)]
pub struct PlanCache {
    inner: Arc<Inner>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                plans: Mutex::new(HashMap::new()),
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
                per_op: PerOpCounters::default(),
                tune_store: TuneStore::new(),
                tuned_plans: AtomicUsize::new(0),
                heuristic_plans: AtomicUsize::new(0),
                f32_plans: AtomicUsize::new(0),
                int8_plans: AtomicUsize::new(0),
            }),
        }
    }

    /// Return the plan for `(shape, opts)`, running the setup pipeline
    /// (blocking choice, kernel generation, dryrun) only on a miss.
    ///
    /// The build happens under the cache lock so concurrent requests
    /// for the same key JIT once; plan setup is a cold path by design
    /// (the paper's "setup once, replay many times").
    pub fn get_or_build(&self, shape: ConvShape, opts: LayerOptions) -> Arc<ConvLayer> {
        let key = LayerKey::new(&shape, &opts);
        let op = opts.fuse.index();
        let mut plans = self.inner.plans.lock().unwrap();
        if let Some(plan) = plans.get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            self.inner.per_op.hits[op].fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        self.inner.per_op.misses[op].fetch_add(1, Ordering::Relaxed);
        let mut opts = opts;
        if opts.tune != TuneLevel::Heuristic && opts.tune_store.is_none() {
            // route tuning through the cache's shared store, so every
            // (shape, machine, level) tunes at most once per cache —
            // replicas and repeated builds replay the memoized winner
            opts.tune_store = Some(self.inner.tune_store.clone());
        }
        let plan = Arc::new(ConvLayer::new(shape, opts));
        match plan.precision() {
            Precision::F32 => &self.inner.f32_plans,
            Precision::Int8 => &self.inner.int8_plans,
        }
        .fetch_add(1, Ordering::Relaxed);
        match plan.tune_outcome().level {
            TuneLevel::Heuristic => &self.inner.heuristic_plans,
            _ => &self.inner.tuned_plans,
        }
        .fetch_add(1, Ordering::Relaxed);
        plans.insert(key, Arc::clone(&plan));
        plan
    }

    /// The cache's shared memo of tuning winners.
    pub fn tune_store(&self) -> &TuneStore {
        &self.inner.tune_store
    }

    /// Load an on-disk tuning cache (see [`TuneStore::load`]) into the
    /// shared store: subsequent tuned builds replay the winners with
    /// zero micro-bench runs. Returns the number of entries read.
    ///
    /// # Errors
    /// Any I/O error from the read; `InvalidData` for malformed files.
    pub fn load_tuning(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        self.inner.tune_store.load(path)
    }

    /// Persist the tuning winners to disk (see [`TuneStore::save`]).
    /// Returns the number of entries written.
    ///
    /// # Errors
    /// Any I/O error from the write.
    pub fn save_tuning(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        self.inner.tune_store.save(path)
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> usize {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that built a new plan so far.
    pub fn misses(&self) -> usize {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Distinct plans currently held.
    pub fn len(&self) -> usize {
        self.inner.plans.lock().unwrap().len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let mut per_op = [FusedOpCacheStats::default(); FusedOp::ALL.len()];
        for (i, s) in per_op.iter_mut().enumerate() {
            s.hits = self.inner.per_op.hits[i].load(Ordering::Relaxed);
            s.misses = self.inner.per_op.misses[i].load(Ordering::Relaxed);
        }
        PlanCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
            per_op,
            tuned_plans: self.inner.tuned_plans.load(Ordering::Relaxed),
            heuristic_plans: self.inner.heuristic_plans.load(Ordering::Relaxed),
            tune_runs: self.inner.tune_store.tune_runs(),
            tune_micro_runs: self.inner.tune_store.micro_bench_runs(),
            tune_time_ms: self.inner.tune_store.tune_time_ms(),
            f32_plans: self.inner.f32_plans.load(Ordering::Relaxed),
            int8_plans: self.inner.int8_plans.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of this plan cache *and* the process-wide kernel code
    /// cache in one call — what a serving stats endpoint reports.
    pub fn combined_stats(&self) -> CombinedCacheStats {
        CombinedCacheStats { plans: self.stats(), kernels: crate::backend::kernel_cache_stats() }
    }

    /// Drop every cached plan (counters keep accumulating).
    pub fn clear(&self) {
        self.inner.plans.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> ConvShape {
        ConvShape::new(1, 16, 16, 6, 6, 3, 3, 1, 1)
    }

    #[test]
    fn hit_returns_the_same_plan() {
        let cache = PlanCache::new();
        let a = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let b = cache.get_or_build(small_shape(), LayerOptions::new(2));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_options_are_distinct_entries() {
        let cache = PlanCache::new();
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(4));
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(2).with_fuse(FusedOp::Relu));
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(2).with_prefetch(false));
        let knm = LayerOptions::new(2).with_machine(machine::MachineModel::knm());
        let _ = cache.get_or_build(small_shape(), knm);
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn default_padding_normalizes_to_explicit() {
        let cache = PlanCache::new();
        let shape = small_shape();
        let a = cache.get_or_build(shape, LayerOptions::new(2));
        // explicitly requesting the conv's own pad is the same plan
        let b = cache.get_or_build(shape, LayerOptions::new(2).with_input_pad(shape.pad));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn out_pad_is_part_of_the_key() {
        // a folded inference plan (fused, padded output) must never be
        // handed to a caller asking for the plain training plan
        let cache = PlanCache::new();
        let a = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let b = cache.get_or_build(small_shape(), LayerOptions::new(2).with_out_pad(1));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        // and the padded request is itself cacheable
        let c = cache.get_or_build(small_shape(), LayerOptions::new(2).with_out_pad(1));
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn stats_break_out_hits_and_misses_per_fused_op() {
        let cache = PlanCache::new();
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let fused = LayerOptions::new(2).with_fuse(FusedOp::BiasEltwiseRelu);
        let _ = cache.get_or_build(small_shape(), fused.clone());
        let _ = cache.get_or_build(small_shape(), fused.clone());
        let _ = cache.get_or_build(small_shape(), fused);
        let stats = cache.stats();
        assert_eq!(stats.for_op(FusedOp::None).misses, 1);
        assert_eq!(stats.for_op(FusedOp::None).hits, 1);
        assert_eq!(stats.for_op(FusedOp::BiasEltwiseRelu).misses, 1);
        assert_eq!(stats.for_op(FusedOp::BiasEltwiseRelu).hits, 2);
        assert_eq!(stats.for_op(FusedOp::Relu).hits + stats.for_op(FusedOp::Relu).misses, 0);
        // the per-op table partitions the totals exactly
        let (h, m) = stats.per_op.iter().fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        assert_eq!((h, m), (stats.hits, stats.misses));
    }

    #[test]
    fn combined_stats_reflect_both_tiers() {
        let cache = PlanCache::new();
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let combined = cache.combined_stats();
        assert_eq!(combined.plans.misses, cache.misses());
        // building a plan touches the process-wide kernel code cache
        assert!(combined.kernels.hits + combined.kernels.misses > 0);
    }

    #[test]
    fn tune_level_is_part_of_the_key() {
        let cache = PlanCache::new();
        let a = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let measured = LayerOptions::new(2).with_tune(TuneLevel::Measured);
        let b = cache.get_or_build(small_shape(), measured);
        assert!(!Arc::ptr_eq(&a, &b), "tuned and heuristic plans must not collide");
        assert_eq!(cache.misses(), 2);
        let stats = cache.stats();
        // without a pool the measured request degrades to the heuristic
        assert_eq!((stats.heuristic_plans, stats.tuned_plans), (2, 0));
        assert_eq!(stats.tune_runs, 1);
    }

    #[test]
    fn same_shape_and_machine_tunes_exactly_once() {
        let cache = PlanCache::new();
        let measured = LayerOptions::new(2).with_tune(TuneLevel::Measured);
        // fused variants are distinct *plans* but the same tuning key:
        // the blocking search must run once for all of them
        let a = cache.get_or_build(small_shape(), measured.clone());
        let b = cache.get_or_build(small_shape(), measured.clone().with_fuse(FusedOp::Relu));
        let c = cache.get_or_build(small_shape(), measured.clone().with_fuse(FusedOp::BiasRelu));
        let _ = cache.get_or_build(small_shape(), measured); // pure hit
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.stats().tune_runs, 1, "one search for one (shape, machine, level)");
        assert_eq!(a.blocking(), b.blocking());
        assert_eq!(b.blocking(), c.blocking());
    }

    #[test]
    fn tuning_survives_a_save_load_round_trip_with_zero_micro_runs() {
        let cache = PlanCache::new();
        let measured = LayerOptions::new(2).with_tune(TuneLevel::Measured);
        let _ = cache.get_or_build(small_shape(), measured.clone());
        let dir = std::env::temp_dir().join("anatomy-tune-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("tunes-{}.bin", std::process::id()));
        assert_eq!(cache.save_tuning(&path).unwrap(), 1);

        // a fresh cache (a daemon restart) replays the winner from disk
        let restarted = PlanCache::new();
        assert_eq!(restarted.load_tuning(&path).unwrap(), 1);
        let plan = restarted.get_or_build(small_shape(), measured);
        let stats = restarted.stats();
        assert_eq!(stats.tune_runs, 0, "restart must not re-tune");
        assert_eq!(stats.tune_micro_runs, 0, "restart must not micro-bench");
        assert_eq!(stats.heuristic_plans, 1, "the pool-less winner replays as the heuristic");
        assert!(plan.tune_outcome().predicted_gflops > 0.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn precision_and_chain_limit_are_part_of_the_key() {
        let cache = PlanCache::new();
        let f32_plan = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let int8 = LayerOptions::new(2).with_precision(Precision::Int8);
        let int8_plan = cache.get_or_build(small_shape(), int8.clone());
        assert!(!Arc::ptr_eq(&f32_plan, &int8_plan), "int8 must not collide with f32");
        assert!(int8_plan.quant_plan().is_some());
        assert!(f32_plan.quant_plan().is_none());
        // chain-length variants of the int8 plan are distinct plans
        let short = cache.get_or_build(small_shape(), int8.clone().with_chain_limit(1));
        assert!(!Arc::ptr_eq(&int8_plan, &short), "chain-limit variants must not collide");
        // ...but chain limit is ignored (normalized) for f32 requests
        let f32_chain = cache.get_or_build(small_shape(), LayerOptions::new(2).with_chain_limit(1));
        assert!(Arc::ptr_eq(&f32_plan, &f32_chain), "chain limit is an int8-only knob");
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 1);
        let stats = cache.stats();
        assert_eq!(stats.f32_plans, 1);
        assert_eq!(stats.int8_plans, 2);
        assert_eq!(stats.f32_plans + stats.int8_plans, stats.misses);
    }

    #[test]
    fn clones_share_one_cache() {
        let cache = PlanCache::new();
        let other = cache.clone();
        let _ = cache.get_or_build(small_shape(), LayerOptions::new(2));
        let _ = other.get_or_build(small_shape(), LayerOptions::new(2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(other.misses(), 1);
        cache.clear();
        assert!(other.is_empty());
    }
}
