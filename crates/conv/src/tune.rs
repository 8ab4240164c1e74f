//! Plan-time autotuning of the blocking choice (DESIGN.md §10).
//!
//! The paper's performance hinges on picking the right register/cache
//! blocking per layer; [`crate::blocking::choose`] encodes the rule of
//! thumb, and this module escalates beyond it:
//!
//! * [`TuneLevel::Heuristic`] — the fixed rule, zero tuning cost (the
//!   default);
//! * [`TuneLevel::Measured`] — enumerate every legal [`Blocking`]
//!   candidate for the shape ([`candidates`]), preselect the top-k by
//!   the machine's L2 traffic model + per-core roofline ([`rank`]),
//!   micro-bench them once on the layer's real [`ThreadPool`] (warmup
//!   run first, so the process-wide kernel cache is warm and the timed
//!   iterations replay pure streams), and keep the empirical winner.
//!   The heuristic blocking is always in the measured set, so a tuned
//!   plan can never lose to the heuristic by more than timing noise.
//!
//! Tuning is deterministic-safe: when no pool is attached to the
//! [`LayerOptions`], when the pool's team size differs from the plan's
//! thread count, or when the shape is too small to time stably,
//! `Measured` silently degrades to the heuristic — CI boxes never pick
//! noise-driven losers.
//!
//! Results are deduplicated through a [`TuneStore`] keyed by
//! `(ConvShape, machine fingerprint, level)` — every [`PlanCache`]
//! (see [`crate::cache`]) owns one, so replicas and repeated builds
//! never re-tune — and persist across processes via a versioned
//! on-disk file ([`TuneStore::save`]/[`TuneStore::load`]): a daemon
//! restart with the tuning cache on disk performs zero micro-bench
//! runs.
//!
//! [`PlanCache`]: crate::cache::PlanCache

use crate::blocking::{self, Blocking, MAX_ACC, MIN_CHAINS};
use crate::fuse::{FuseCtx, FusedOp};
use crate::fwd::{FwdPlan, PlanRequest};
use crate::layer::LayerOptions;
use machine::MachineModel;
use parallel::ThreadPool;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tensor::{BlockedActs, BlockedFilter, ConvShape};

/// How hard the planner works to pick a layer's [`Blocking`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TuneLevel {
    /// The fixed [`crate::blocking::choose`] rule — no search.
    #[default]
    Heuristic,
    /// Rank all legal candidates by predicted GFLOPS (traffic model +
    /// roofline), then micro-bench the top-k (plus the heuristic) once
    /// on the layer's pool and keep the winner.
    Measured,
}

impl TuneLevel {
    /// Parse a level name (`heuristic`/`off`/`none`/`0`, `measured`),
    /// case-insensitively.
    ///
    /// # Errors
    /// The unrecognized input, for the caller's error message.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "heuristic" | "off" | "none" | "0" => Ok(Self::Heuristic),
            "measured" => Ok(Self::Measured),
            other => Err(format!("unknown tune level '{other}' (want off|measured)")),
        }
    }

    /// The level named by the `ANATOMY_TUNE` environment variable, if
    /// set to a recognized value.
    pub fn from_env() -> Option<Self> {
        std::env::var("ANATOMY_TUNE").ok().and_then(|v| Self::parse(&v).ok())
    }

    /// Stable lowercase name (the `ANATOMY_TUNE` / `--tune` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Heuristic => "heuristic",
            Self::Measured => "measured",
        }
    }

    // the on-disk level byte; 1 belonged to a retired model-ranked
    // level, so files from before its removal are rejected, not misread
    fn as_u8(self) -> u8 {
        match self {
            Self::Heuristic => 0,
            Self::Measured => 2,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(Self::Heuristic),
            2 => Some(Self::Measured),
            _ => None,
        }
    }
}

/// What the tuner decided for one layer, and how it got there.
#[derive(Clone, Copy, Debug)]
pub struct TuneOutcome {
    /// The level that actually produced the blocking (a `Measured`
    /// request that could not be timed stably reports `Heuristic` here).
    pub level: TuneLevel,
    /// The winning blocking the plans were built with.
    pub blocking: Blocking,
    /// Model-predicted whole-team GFLOPS of the winner (per-core
    /// roofline × thread count) — recorded for every plan, heuristic
    /// included, so predicted-vs-measured error is always reportable.
    pub predicted_gflops: f64,
    /// Micro-benched whole-team GFLOPS of the winner (`Measured` only).
    pub measured_gflops: Option<f64>,
    /// Number of candidates the search ranked (0 for `Heuristic`).
    pub candidates: usize,
    /// Wall-clock the tuning decision cost, in milliseconds (≈0 on a
    /// [`TuneStore`] hit).
    pub tune_ms: f64,
}

/// Every legal [`Blocking`] candidate for `shape`:
///
/// * `rbq` ∈ divisors of `Q` up to [`MAX_ACC`], plus the
///   remainder-tile option `rbq = MAX_ACC` when `Q > MAX_ACC`;
/// * `rbp` ∈ `1..=P` under the register budget `rbp × rbq ≤ MAX_ACC`;
/// * candidates must cover [`MIN_CHAINS`] accumulation chains whenever
///   the plane allows it (smaller planes keep their best effort);
/// * `cb_inner` ∈ {1, `Cb`} for 1×1 layers (Section II-C's pulled-in
///   reduction), {1} otherwise;
/// * the weight-update blocking rides along from its own working-set
///   sweep (`upd_bq` is always the full row `Q` — the update kernels
///   sweep complete rows by construction).
pub fn candidates(shape: &ConvShape) -> Vec<Blocking> {
    let (p, q) = (shape.p(), shape.q());
    let upd_bq = q;
    let upd_bp = blocking::choose_upd_bp(p, q);
    let mut rbqs: Vec<usize> = (1..=q.min(MAX_ACC)).filter(|c| q.is_multiple_of(*c)).collect();
    if q > MAX_ACC && !rbqs.contains(&MAX_ACC) {
        rbqs.push(MAX_ACC);
    }
    let cb_inners: Vec<usize> =
        if shape.r == 1 && shape.s == 1 && shape.cb() > 1 { vec![1, shape.cb()] } else { vec![1] };
    let mut out = Vec::new();
    for &rbq in &rbqs {
        for rbp in 1..=p.min(MAX_ACC / rbq) {
            for &cb_inner in &cb_inners {
                out.push(Blocking { rbp, rbq, cb_inner, upd_bp, upd_bq });
            }
        }
    }
    // keep only candidates that cover the FMA latency — unless the
    // whole plane is too small, in which case keep the best coverage
    // the plane allows
    let max_chains = out.iter().map(|b| b.rbp * b.rbq).max().unwrap_or(1);
    let need = MIN_CHAINS.min(max_chains);
    out.retain(|b| b.rbp * b.rbq >= need);
    out
}

/// Model-predicted per-core GFLOPS of running `shape` at blocking `b`
/// on machine `m`: L2 traffic of the explicit candidate
/// ([`machine::forward_traffic_with`]) pushed through the per-core
/// roofline — the autotuner's ranking formula.
pub fn predicted_gflops_core(m: &MachineModel, shape: &ConvShape, b: &Blocking) -> f64 {
    let t = machine::forward_traffic_with(m, shape, b.rbp, b.rbq, b.cb_inner);
    machine::attainable_gflops_core(m, t.oi_read(), t.oi_write())
}

/// All candidates for `shape`, ranked best-predicted first — the
/// preselection of the top-k that `Measured` times. Ties break
/// deterministically towards exact tiling (no remainder tiles), more
/// accumulation chains, then wider `rbq` — so equal-scoring candidates
/// rank the same on every run and every machine.
pub fn rank(m: &MachineModel, shape: &ConvShape) -> Vec<(Blocking, f64)> {
    let (p, q) = (shape.p(), shape.q());
    let mut ranked: Vec<(Blocking, f64)> =
        candidates(shape).into_iter().map(|b| (b, predicted_gflops_core(m, shape, &b))).collect();
    ranked.sort_by(|(a, ga), (b, gb)| {
        gb.total_cmp(ga)
            .then_with(|| {
                let ar = usize::from(p.is_multiple_of(a.rbp) && q.is_multiple_of(a.rbq));
                let br = usize::from(p.is_multiple_of(b.rbp) && q.is_multiple_of(b.rbq));
                br.cmp(&ar)
            })
            .then_with(|| (b.rbp * b.rbq).cmp(&(a.rbp * a.rbq)))
            .then_with(|| b.rbq.cmp(&a.rbq))
            .then_with(|| b.cb_inner.cmp(&a.cb_inner))
    });
    ranked
}

/// Candidates timed by `Measured` after the model ranking.
const TOP_K: usize = 4;
/// Untimed warmup replays per candidate (also JITs + warms the
/// process-wide kernel cache before the clock starts).
const TUNE_WARMUP: usize = 1;
/// Timed replays per candidate — a fixed budget, so tuning cost is
/// bounded and identical across runs.
const TUNE_ITERS: usize = 4;
/// A warmup replay faster than this cannot be timed stably at the
/// fixed budget; `Measured` falls back to the heuristic.
const MIN_STABLE_SECS: f64 = 20e-6;
/// How much faster a measured candidate must be to displace the
/// heuristic — ties and within-noise wins go to the known-good rule,
/// so `Measured` never trades the heuristic for a same-speed blocking.
const MEASURED_MARGIN: f64 = 1.05;

/// Micro-bench `cands` on `pool` and return whole-team GFLOPS per
/// candidate, or `None` when measurement would be unstable.
fn micro_bench(
    shape: &ConvShape,
    opts: &LayerOptions,
    pool: &ThreadPool,
    cands: &[Blocking],
) -> Option<Vec<(Blocking, f64)>> {
    if pool.nthreads() != opts.threads {
        return None;
    }
    let input_pad = opts.input_pad.unwrap_or(shape.pad);
    let input = BlockedActs::zeros(shape.n, shape.c, shape.h, shape.w, input_pad);
    let weights = BlockedFilter::zeros(shape.k, shape.c, shape.r, shape.s);
    let mut output = BlockedActs::zeros(shape.n, shape.k, shape.p(), shape.q(), 0);
    let ctx = FuseCtx::default();
    let flops = shape.flops() as f64;
    // the candidate plans are built with the layer's own backend and
    // thread count; fusion is irrelevant to the blocking choice, so
    // the probe plans stay unfused and share one set of tensors
    let plans: Vec<FwdPlan> = cands
        .iter()
        .map(|&b| {
            let req = PlanRequest::new(*shape, b, opts);
            FwdPlan::new(&PlanRequest { fused: FusedOp::None, out_pad: 0, ..req })
        })
        .collect();
    // warmup pass: JITs + warms the process-wide kernel cache so the
    // timed rounds below replay pure streams
    for plan in &plans {
        for _ in 0..TUNE_WARMUP {
            let t0 = Instant::now();
            plan.run(pool, &input, &weights, &mut output, &ctx);
            if t0.elapsed().as_secs_f64() < MIN_STABLE_SECS {
                // too fast to time at the fixed budget — noise would
                // pick the winner; keep the heuristic instead
                return None;
            }
        }
    }
    // timed rounds are interleaved across candidates (round-robin, not
    // back-to-back) so clock drift — frequency ramping, a neighbor
    // stealing the socket mid-tune — hits every candidate equally
    // instead of penalizing whoever happens to be measured last; the
    // per-candidate minimum over rounds then discards the noise spikes
    let mut best = vec![f64::INFINITY; plans.len()];
    for _ in 0..TUNE_ITERS {
        for (secs, plan) in best.iter_mut().zip(&plans) {
            let t0 = Instant::now();
            plan.run(pool, &input, &weights, &mut output, &ctx);
            *secs = secs.min(t0.elapsed().as_secs_f64());
        }
    }
    Some(cands.iter().zip(best).map(|(&b, secs)| (b, flops / secs / 1e9)).collect())
}

/// The heuristic outcome (always available, never searches).
fn heuristic_outcome(shape: &ConvShape, opts: &LayerOptions) -> TuneOutcome {
    let b = blocking::choose(shape);
    TuneOutcome {
        level: TuneLevel::Heuristic,
        blocking: b,
        predicted_gflops: predicted_gflops_core(&opts.machine, shape, &b) * opts.threads as f64,
        measured_gflops: None,
        candidates: 0,
        tune_ms: 0.0,
    }
}

/// One full `Measured` tuning run (no store consulted). Returns the
/// outcome and the number of micro-bench candidate runs performed.
fn tune_once(shape: &ConvShape, opts: &LayerOptions) -> (TuneOutcome, usize) {
    let t0 = Instant::now();
    let ranked = rank(&opts.machine, shape);
    debug_assert!(!ranked.is_empty(), "candidate space is never empty");
    let mut topk: Vec<Blocking> = ranked.iter().take(TOP_K).map(|(b, _)| *b).collect();
    let h = blocking::choose(shape);
    if !topk.contains(&h) {
        // the heuristic always competes: a measured winner is then
        // never slower than the heuristic beyond timing noise
        topk.push(h);
    }
    let measured = opts.pool.as_deref().and_then(|pool| micro_bench(shape, opts, pool, &topk));
    let Some(results) = measured else {
        let tune_ms = t0.elapsed().as_secs_f64() * 1e3;
        return (TuneOutcome { tune_ms, ..heuristic_outcome(shape, opts) }, 0);
    };
    let &(best, best_gf) =
        results.iter().max_by(|(_, a), (_, b)| a.total_cmp(b)).expect("top-k is never empty");
    // a candidate must beat the heuristic by a real margin to displace
    // it: within-noise "wins" keep the known rule, so a measured plan
    // is never slower than the heuristic beyond timing noise
    let h_gf = results.iter().find(|(b, _)| *b == h).map_or(0.0, |&(_, gf)| gf);
    let (winner, gf) =
        if best == h || best_gf >= h_gf * MEASURED_MARGIN { (best, best_gf) } else { (h, h_gf) };
    let outcome = TuneOutcome {
        level: TuneLevel::Measured,
        blocking: winner,
        predicted_gflops: predicted_gflops_core(&opts.machine, shape, &winner)
            * opts.threads as f64,
        measured_gflops: Some(gf),
        candidates: ranked.len(),
        tune_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    (outcome, results.len())
}

/// Resolve the blocking for a layer being built: the single entry
/// point [`crate::ConvLayer::new`] calls. `Heuristic` is a fast path;
/// `Measured` goes through the options' [`TuneStore`] when one
/// is attached (the [`crate::cache::PlanCache`] attaches its own), so
/// one `(shape, machine, level)` tunes at most once per store.
pub(crate) fn resolve(shape: &ConvShape, opts: &LayerOptions) -> TuneOutcome {
    if opts.tune == TuneLevel::Heuristic {
        return heuristic_outcome(shape, opts);
    }
    match &opts.tune_store {
        Some(store) => store.resolve(shape, opts),
        None => tune_once(shape, opts).0,
    }
}

/// A persisted tuning decision: the winner for one
/// `(shape, machine fingerprint, level)` key.
#[derive(Clone, Copy, Debug)]
pub struct TuneEntry {
    /// The winning blocking.
    pub blocking: Blocking,
    /// Model-predicted whole-team GFLOPS of the winner.
    pub predicted_gflops: f64,
    /// Micro-benched whole-team GFLOPS (when the winner was measured).
    pub measured_gflops: Option<f64>,
    /// What the original tuning run cost, in milliseconds.
    pub tune_ms: f64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct TuneKey {
    shape: ConvShape,
    fingerprint: u64,
    level: TuneLevel,
}

#[derive(Default)]
struct StoreInner {
    entries: HashMap<TuneKey, TuneEntry>,
    runs: usize,
    micro_runs: usize,
    tune_ms: f64,
}

/// A shareable memo of tuning winners keyed by
/// `(ConvShape, machine fingerprint, TuneLevel)` — cloning the handle
/// shares the store. Each [`crate::cache::PlanCache`] owns one, and it
/// round-trips to disk (versioned binary, magic `ANATTC\0\x01`) so a
/// process restart replays winners instead of re-measuring.
#[derive(Clone, Default)]
pub struct TuneStore {
    inner: Arc<Mutex<StoreInner>>,
}

/// Magic + version prefix of the on-disk tuning cache.
const TUNE_MAGIC: &[u8; 8] = b"ANATTC\0\x01";
/// Serialized size of one entry (shape 9×u32, fingerprint u64, level
/// u8, blocking 5×u32, predicted f64, has_measured u8, measured f64,
/// tune_ms f64).
const ENTRY_BYTES: usize = 9 * 4 + 8 + 1 + 5 * 4 + 8 + 1 + 8 + 8;

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl TuneStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Winners currently memoized.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether no winner has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tuning searches actually run through this store (store hits —
    /// including entries loaded from disk — don't count).
    pub fn tune_runs(&self) -> usize {
        self.inner.lock().unwrap().runs
    }

    /// Candidate micro-bench measurements performed (0 after a restart
    /// that loaded every winner from disk).
    pub fn micro_bench_runs(&self) -> usize {
        self.inner.lock().unwrap().micro_runs
    }

    /// Total wall-clock spent inside tuning searches, in milliseconds.
    pub fn tune_time_ms(&self) -> f64 {
        self.inner.lock().unwrap().tune_ms
    }

    /// The memoized winner for `(shape, fingerprint, level)`, if any.
    pub fn get(&self, shape: &ConvShape, fingerprint: u64, level: TuneLevel) -> Option<TuneEntry> {
        let key = TuneKey { shape: *shape, fingerprint, level };
        self.inner.lock().unwrap().entries.get(&key).copied()
    }

    /// Get-or-tune under the store lock: concurrent requests for the
    /// same key tune once, everyone else replays the memo.
    fn resolve(&self, shape: &ConvShape, opts: &LayerOptions) -> TuneOutcome {
        let key =
            TuneKey { shape: *shape, fingerprint: opts.machine.fingerprint(), level: opts.tune };
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.entries.get(&key) {
            return TuneOutcome {
                level: if e.measured_gflops.is_some() {
                    TuneLevel::Measured
                } else {
                    TuneLevel::Heuristic
                },
                blocking: e.blocking,
                predicted_gflops: e.predicted_gflops,
                measured_gflops: e.measured_gflops,
                candidates: 0,
                tune_ms: 0.0,
            };
        }
        let (outcome, micro_runs) = tune_once(shape, opts);
        inner.runs += 1;
        inner.micro_runs += micro_runs;
        inner.tune_ms += outcome.tune_ms;
        inner.entries.insert(
            key,
            TuneEntry {
                blocking: outcome.blocking,
                predicted_gflops: outcome.predicted_gflops,
                measured_gflops: outcome.measured_gflops,
                tune_ms: outcome.tune_ms,
            },
        );
        outcome
    }

    /// Serialize every memoized winner (sorted for byte-stable output).
    pub fn to_bytes(&self) -> Vec<u8> {
        let inner = self.inner.lock().unwrap();
        let mut keys: Vec<&TuneKey> = inner.entries.keys().collect();
        keys.sort_by_key(|k| {
            let s = &k.shape;
            (s.n, s.c, s.k, s.h, s.w, s.r, s.s, s.stride, s.pad, k.fingerprint, k.level.as_u8())
        });
        let mut out = Vec::with_capacity(8 + 4 + keys.len() * ENTRY_BYTES);
        out.extend_from_slice(TUNE_MAGIC);
        out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for key in keys {
            let e = &inner.entries[key];
            let s = &key.shape;
            for v in [s.n, s.c, s.k, s.h, s.w, s.r, s.s, s.stride, s.pad] {
                out.extend_from_slice(&(v as u32).to_le_bytes());
            }
            out.extend_from_slice(&key.fingerprint.to_le_bytes());
            out.push(key.level.as_u8());
            let b = &e.blocking;
            for v in [b.rbp, b.rbq, b.cb_inner, b.upd_bp, b.upd_bq] {
                out.extend_from_slice(&(v as u32).to_le_bytes());
            }
            out.extend_from_slice(&e.predicted_gflops.to_le_bytes());
            out.push(u8::from(e.measured_gflops.is_some()));
            out.extend_from_slice(&e.measured_gflops.unwrap_or(0.0).to_le_bytes());
            out.extend_from_slice(&e.tune_ms.to_le_bytes());
        }
        out
    }

    /// Merge the winners serialized by [`Self::to_bytes`] into this
    /// store (existing keys keep their in-memory value). Every entry
    /// is validated against the blocking invariants the plans assert
    /// — a corrupted or hostile file is an error, never a panic in a
    /// later plan build. Returns the number of entries read.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::InvalidData`] on bad magic/version,
    /// truncated or oversized payloads, or illegal entries.
    pub fn merge_bytes(&self, bytes: &[u8]) -> std::io::Result<usize> {
        if bytes.len() < 12 {
            return Err(bad_data("tuning cache: shorter than its header"));
        }
        if &bytes[..8] != TUNE_MAGIC {
            return Err(bad_data("tuning cache: bad magic/version (want ANATTC v1)"));
        }
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let want = 12 + count * ENTRY_BYTES;
        if bytes.len() != want {
            return Err(bad_data(format!(
                "tuning cache: {} entries need {want} bytes, file has {}",
                count,
                bytes.len()
            )));
        }
        let mut at = 12;
        let u32_at = |at: &mut usize| {
            let v = u32::from_le_bytes(bytes[*at..*at + 4].try_into().unwrap()) as usize;
            *at += 4;
            v
        };
        let mut inner = self.inner.lock().unwrap();
        for _ in 0..count {
            let f = [0; 9].map(|_| u32_at(&mut at));
            let [n, c, k, h, w, r, s, stride, pad] = f;
            if n == 0 || c == 0 || k == 0 || h == 0 || w == 0 || r == 0 || s == 0 || stride == 0 {
                return Err(bad_data("tuning cache: degenerate shape"));
            }
            if h + 2 * pad < r || w + 2 * pad < s {
                return Err(bad_data("tuning cache: filter exceeds padded input"));
            }
            let shape = ConvShape::new(n, c, k, h, w, r, s, stride, pad);
            let fingerprint = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            at += 8;
            let level = TuneLevel::from_u8(bytes[at])
                .ok_or_else(|| bad_data("tuning cache: unknown tune level"))?;
            at += 1;
            let b = Blocking {
                rbp: u32_at(&mut at),
                rbq: u32_at(&mut at),
                cb_inner: u32_at(&mut at),
                upd_bp: u32_at(&mut at),
                upd_bq: u32_at(&mut at),
            };
            // the invariants the fwd/upd plans assert — reject here so
            // a hostile file cannot crash a later plan build
            let legal = b.rbp >= 1
                && b.rbq >= 1
                && b.rbp * b.rbq <= MAX_ACC
                && b.rbp <= shape.p()
                && b.rbq <= shape.q()
                && b.cb_inner >= 1
                && shape.cb().is_multiple_of(b.cb_inner)
                && (1..=shape.p()).contains(&b.upd_bp)
                && b.upd_bq == shape.q();
            if !legal {
                return Err(bad_data(format!("tuning cache: illegal blocking {b:?} for {shape}")));
            }
            let predicted_gflops = f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            at += 8;
            let has_measured = bytes[at];
            at += 1;
            let measured = f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            at += 8;
            let tune_ms = f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            at += 8;
            if has_measured > 1 || !predicted_gflops.is_finite() || !tune_ms.is_finite() {
                return Err(bad_data("tuning cache: malformed entry payload"));
            }
            let entry = TuneEntry {
                blocking: b,
                predicted_gflops,
                measured_gflops: (has_measured == 1).then_some(measured),
                tune_ms,
            };
            inner.entries.entry(TuneKey { shape, fingerprint, level }).or_insert(entry);
        }
        Ok(count)
    }

    /// Write the store to `path` ([`Self::to_bytes`] format).
    ///
    /// # Errors
    /// Any I/O error from the write.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        let n = self.len();
        std::fs::write(path, self.to_bytes())?;
        Ok(n)
    }

    /// Load `path` into the store (see [`Self::merge_bytes`]).
    ///
    /// # Errors
    /// Any I/O error from the read; `InvalidData` for malformed files.
    pub fn load(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        self.merge_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_at(level: TuneLevel, threads: usize) -> LayerOptions {
        LayerOptions::new(threads).with_tune(level)
    }

    #[test]
    fn candidates_are_legal_and_include_the_heuristic() {
        for shape in [
            ConvShape::new(2, 64, 64, 56, 56, 3, 3, 1, 1),
            ConvShape::new(2, 256, 64, 56, 56, 1, 1, 1, 0),
            ConvShape::new(1, 512, 512, 7, 7, 3, 3, 1, 1),
            ConvShape::new(1, 64, 64, 100, 100, 3, 3, 1, 1),
            ConvShape::new(1, 32, 32, 3, 3, 3, 3, 1, 1),
        ] {
            let cands = candidates(&shape);
            assert!(!cands.is_empty(), "{shape}");
            let max_chains = cands.iter().map(|b| b.rbp * b.rbq).max().unwrap();
            for b in &cands {
                assert!(b.rbp * b.rbq <= MAX_ACC, "{shape}: {b:?}");
                assert!(b.rbp >= 1 && b.rbp <= shape.p(), "{shape}: {b:?}");
                assert!(b.rbq >= 1 && b.rbq <= shape.q(), "{shape}: {b:?}");
                assert!(b.rbp * b.rbq >= MIN_CHAINS.min(max_chains), "{shape}: {b:?}");
                assert!(shape.cb().is_multiple_of(b.cb_inner), "{shape}: {b:?}");
                assert_eq!(b.upd_bq, shape.q(), "{shape}: {b:?}");
            }
            let h = blocking::choose(&shape);
            assert!(cands.contains(&h), "{shape}: heuristic {h:?} not enumerated");
        }
    }

    #[test]
    fn model_ranking_never_predicts_below_the_heuristic() {
        let m = MachineModel::skx();
        for shape in [
            ConvShape::new(2, 64, 64, 56, 56, 3, 3, 1, 1),
            ConvShape::new(2, 256, 64, 56, 56, 1, 1, 1, 0),
            ConvShape::new(1, 1024, 2048, 14, 14, 1, 1, 2, 0),
        ] {
            let ranked = rank(&m, &shape);
            let h = blocking::choose(&shape);
            let h_pred = predicted_gflops_core(&m, &shape, &h);
            assert!(
                ranked[0].1 >= h_pred - 1e-9,
                "{shape}: model winner {} below heuristic {}",
                ranked[0].1,
                h_pred
            );
            // ranking is sorted
            for w in ranked.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn ranking_is_deterministic() {
        let m = MachineModel::skx();
        let shape = ConvShape::new(2, 64, 64, 28, 28, 3, 3, 1, 1);
        assert_eq!(
            rank(&m, &shape).iter().map(|(b, _)| *b).collect::<Vec<_>>(),
            rank(&m, &shape).iter().map(|(b, _)| *b).collect::<Vec<_>>()
        );
    }

    #[test]
    fn measured_without_a_pool_degrades_to_the_heuristic() {
        let shape = ConvShape::new(1, 16, 16, 6, 6, 3, 3, 1, 1);
        let opts = opts_at(TuneLevel::Measured, 2);
        let (outcome, micro) = tune_once(&shape, &opts);
        assert_eq!(outcome.level, TuneLevel::Heuristic);
        assert_eq!(outcome.blocking, blocking::choose(&shape));
        assert_eq!(micro, 0);
        assert!(outcome.measured_gflops.is_none());
        assert!(outcome.predicted_gflops > 0.0);
    }

    #[test]
    fn measured_with_a_mismatched_pool_degrades_to_the_heuristic() {
        let shape = ConvShape::new(1, 16, 16, 6, 6, 3, 3, 1, 1);
        let pool = Arc::new(ThreadPool::new(1));
        let opts = opts_at(TuneLevel::Measured, 2).with_pool(pool);
        let (outcome, _) = tune_once(&shape, &opts);
        assert_eq!(outcome.level, TuneLevel::Heuristic);
    }

    #[test]
    fn store_tunes_each_key_once() {
        let store = TuneStore::new();
        let shape = ConvShape::new(1, 16, 16, 6, 6, 3, 3, 1, 1);
        let opts = opts_at(TuneLevel::Measured, 2).with_tune_store(store.clone());
        let a = resolve(&shape, &opts);
        let b = resolve(&shape, &opts);
        assert_eq!(store.tune_runs(), 1, "second resolve must hit the memo");
        assert_eq!(a.blocking, b.blocking);
        assert_eq!(b.tune_ms, 0.0, "store hits report zero tune time");
        // a hit without measured GFLOPS reports the heuristic it replays
        assert_eq!(b.level, TuneLevel::Heuristic);
        // a different machine fingerprint is a different key
        let mut opts_knm = opts_at(TuneLevel::Measured, 2).with_tune_store(store.clone());
        opts_knm.machine = MachineModel::knm();
        let _ = resolve(&shape, &opts_knm);
        assert_eq!(store.tune_runs(), 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn store_round_trips_through_bytes() {
        let store = TuneStore::new();
        let shapes = [
            ConvShape::new(1, 16, 16, 6, 6, 3, 3, 1, 1),
            ConvShape::new(1, 32, 16, 8, 8, 1, 1, 1, 0),
        ];
        for s in &shapes {
            let opts = opts_at(TuneLevel::Measured, 2).with_tune_store(store.clone());
            let _ = resolve(s, &opts);
        }
        let bytes = store.to_bytes();
        let restored = TuneStore::new();
        assert_eq!(restored.merge_bytes(&bytes).unwrap(), 2);
        assert_eq!(restored.len(), 2);
        // restored winners replay without any tuning run
        for s in &shapes {
            let opts = opts_at(TuneLevel::Measured, 2).with_tune_store(restored.clone());
            let out = resolve(s, &opts);
            let fp = opts.machine.fingerprint();
            assert_eq!(out.blocking, store.get(s, fp, TuneLevel::Measured).unwrap().blocking);
        }
        assert_eq!(restored.tune_runs(), 0);
        assert_eq!(restored.micro_bench_runs(), 0);
        // byte-stable output
        assert_eq!(bytes, store.to_bytes());
    }

    #[test]
    fn hostile_tuning_files_are_errors_not_panics() {
        let store = TuneStore::new();
        let opts = opts_at(TuneLevel::Measured, 2).with_tune_store(store.clone());
        let _ = resolve(&ConvShape::new(1, 16, 16, 6, 6, 3, 3, 1, 1), &opts);
        let good = store.to_bytes();

        let fresh = || TuneStore::new();
        // truncated header / payload
        assert!(fresh().merge_bytes(&good[..4]).is_err());
        assert!(fresh().merge_bytes(&good[..good.len() - 1]).is_err());
        // bad magic
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(fresh().merge_bytes(&bad).is_err());
        // count larger than the payload
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(fresh().merge_bytes(&bad).is_err());
        // illegal blocking (rbp*rbq blown past the register budget)
        let mut bad = good.clone();
        let rbp_off = 12 + 9 * 4 + 8 + 1;
        bad[rbp_off..rbp_off + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(fresh().merge_bytes(&bad).is_err());
        // level byte 1 (the retired model-ranked level) is unknown
        let mut bad = good.clone();
        bad[rbp_off - 1] = 1;
        let err = fresh().merge_bytes(&bad).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // trailing garbage
        let mut bad = good.clone();
        bad.push(0);
        assert!(fresh().merge_bytes(&bad).is_err());
    }

    #[test]
    fn tune_level_parsing() {
        assert_eq!(TuneLevel::parse("off").unwrap(), TuneLevel::Heuristic);
        assert_eq!(TuneLevel::parse("MEASURED").unwrap(), TuneLevel::Measured);
        assert!(TuneLevel::parse("fastest").is_err());
        let err = TuneLevel::parse("model").unwrap_err();
        assert!(err.contains("off|measured"), "{err}");
        for level in [TuneLevel::Heuristic, TuneLevel::Measured] {
            assert_eq!(TuneLevel::parse(level.name()).unwrap(), level);
            assert_eq!(TuneLevel::from_u8(level.as_u8()), Some(level));
        }
    }
}
