//! Property-based contracts of the int8/VNNI quantized path
//! (DESIGN.md §11): the quantize→dequantize round trip is bounded by
//! half a quantization step, the rounding rule is round-to-nearest-even
//! saturating at the symmetric i8 edges, the restricted accumulation
//! chain is exact in int32, and every quantized plan's blocking obeys
//! the same legality invariants `blocking_properties.rs` pins for the
//! f32 engine.

use conv::blocking::{MAX_ACC, MIN_CHAINS};
use conv::fwd::FwdPlan;
use conv::quant::QuantFwdPlan;
use conv::{blocking, tune, FusedOp, LayerOptions, PlanRequest};
use parallel::ThreadPool;
use proptest::prelude::*;
use tensor::vnni::{rne_sat_i8, BlockedI32, I8_QMAX};
use tensor::{BlockedActs, ConvShape, VnniActs, VnniFilter, VLEN};

/// The int16 plan of `shape` at the heuristic blocking.
fn quant_plan(shape: ConvShape, threads: usize, chain: usize) -> QuantFwdPlan {
    let opts = LayerOptions::new(threads).with_chain_limit(chain);
    QuantFwdPlan::new(&PlanRequest::new(shape, blocking::choose(&shape), &opts))
}

/// Same plane-coverage check the f32 blocking properties pin.
fn assert_tiles_cover_plane(rbp: usize, rbq: usize, p: usize, q: usize) {
    let (tp, tq) = (p.div_ceil(rbp), q.div_ceil(rbq));
    assert!((tp - 1) * rbp < p, "rbp={rbp} p={p}");
    assert!((tq - 1) * rbq < q, "rbq={rbq} q={q}");
    assert!(tp * rbp >= p, "rbp={rbp} p={p}");
    assert!(tq * rbq >= q, "rbq={rbq} q={q}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `rne_sat_i8` is round-to-nearest-even saturating at `±127`:
    /// in-range values land within half a step, out-of-range values
    /// pin to the edges, and exact halves round to the even neighbor.
    #[test]
    fn rounding_is_rne_and_saturates_at_the_i8_edges(v in -300.0f32..300.0) {
        let q = rne_sat_i8(v);
        prop_assert!((-127..=127).contains(&q), "{v} -> {q}");
        if v >= I8_QMAX {
            prop_assert_eq!(q, 127, "{}", v);
        } else if v <= -I8_QMAX {
            prop_assert_eq!(q, -127, "{}", v);
        } else {
            prop_assert!((q as f32 - v).abs() <= 0.5, "{} -> {}", v, q);
        }
    }

    /// Ties round to even, symmetrically in sign — the bias-free rule
    /// the requantization step depends on.
    #[test]
    fn ties_round_to_even(k in -126i32..=125) {
        let v = k as f32 + 0.5;
        let q = rne_sat_i8(v);
        prop_assert_eq!(q % 2, 0, "{} -> {}: ties must land on even", v, q);
        prop_assert!((q as f32 - v).abs() <= 0.5, "{} -> {}", v, q);
        let qn = rne_sat_i8(-v);
        prop_assert_eq!(qn, -q, "RNE is symmetric in sign: {} -> {}, {} -> {}", v, q, -v, qn);
    }

    /// Per-channel quantize→dequantize reconstructs every in-range
    /// value within half a quantization step (`s/2`), and values past
    /// the channel's amax saturate to `±127` instead of wrapping.
    #[test]
    fn per_channel_round_trip_is_bounded_by_half_a_step(
        vals in prop::collection::vec(-6.0f32..6.0, VLEN * 4),
        amax in prop::collection::vec(0.25f32..4.0, VLEN),
    ) {
        // one lane-exact channel block, 2×2 plane, no padding: every
        // storage element is a logical element
        let (n, c, h, w) = (1usize, VLEN, 2usize, 2usize);
        let mut x = BlockedActs::zeros(n, c, h, w, 0);
        x.as_mut_slice().copy_from_slice(&vals);
        let scale: Vec<f32> = amax.iter().map(|a| a / I8_QMAX).collect();
        let inv: Vec<f32> = scale.iter().map(|s| 1.0 / s).collect();
        let mut xq = VnniActs::zeros(n, c, h, w, 0);
        xq.quantize_per_channel_into(&x, &inv);
        for ch in 0..c {
            for (hh, ww) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let v = x.get(0, ch, hh, ww);
                let q = xq.get(0, ch, hh, ww);
                prop_assert!((-127..=127).contains(&q), "ch {ch}: {v} -> {q}");
                if v.abs() <= amax[ch] {
                    let err = (v - q as f32 * scale[ch]).abs();
                    prop_assert!(
                        err <= 0.5 * scale[ch] * 1.001,
                        "ch {}: {} -> {} (step {}): err {}", ch, v, q, scale[ch], err
                    );
                } else {
                    prop_assert_eq!(
                        q, 127 * v.signum() as i16,
                        "ch {}: {} past amax {} must saturate", ch, v, amax[ch]
                    );
                }
            }
        }
    }

    /// The paper's restricted accumulation chain (Section II-K) is a
    /// pure scheduling choice: any chain limit produces bit-identical
    /// int32 accumulators.
    #[test]
    fn chain_limit_is_exact_in_int32(chain in 1usize..=8) {
        let shape = ConvShape::new(1, 128, 16, 6, 6, 1, 1, 1, 0);
        let pool = ThreadPool::new(2);
        let xq = VnniActs::random(1, 128, 6, 6, 0, 3);
        let wq = VnniFilter::random(16, 128, 1, 1, 4);
        let reference = {
            let plan = quant_plan(shape, 2, 1);
            let mut out = BlockedI32::zeros(1, 16, 6, 6);
            plan.run(&pool, &xq, &wq, &mut out);
            out.as_slice().to_vec()
        };
        let plan = quant_plan(shape, 2, chain);
        let mut out = BlockedI32::zeros(1, 16, 6, 6);
        plan.run(&pool, &xq, &wq, &mut out);
        prop_assert_eq!(reference, out.as_slice().to_vec(), "chain={}", chain);
    }
}

proptest! {
    // plan construction JITs kernels and records streams — fewer cases
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every quantized plan's blocking satisfies the legality
    /// invariants the f32 engine pins: register budget, latency
    /// floor, exact plane tiling, `cb_inner` divisibility — for any
    /// chain limit and thread count.
    #[test]
    fn quant_plan_blocking_is_always_legal(
        cb in 1usize..5,
        kb in 1usize..4,
        h in 1usize..40,
        w in 1usize..40,
        spatial in any::<bool>(),
        stride in 1usize..3,
        chain in 1usize..=8,
        threads in 1usize..4,
    ) {
        let (r, pad) = if spatial { (3, 1) } else { (1, 0) };
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= r);
        let shape = ConvShape::new(1, cb * VLEN, kb * VLEN, h, w, r, r, stride, pad);
        let (p, q) = (shape.p(), shape.q());
        let plan = quant_plan(shape, threads, chain);
        let b = plan.blocking();

        prop_assert!(b.rbp * b.rbq <= MAX_ACC, "{}: {:?}", shape, b);
        prop_assert!(b.rbp >= 1 && b.rbp <= p, "{}: {:?}", shape, b);
        prop_assert!(b.rbq >= 1 && b.rbq <= q, "{}: {:?}", shape, b);
        if p * q >= MIN_CHAINS {
            prop_assert!(
                b.rbp * b.rbq >= MIN_CHAINS.min(p.min(MAX_ACC / b.rbq) * b.rbq),
                "{}: {:?}", shape, b
            );
        }
        prop_assert!(shape.cb().is_multiple_of(b.cb_inner), "{}: {:?}", shape, b);
        assert_tiles_cover_plane(b.rbp, b.rbq, p, q);
    }

    /// The f32 and the int16 plan built from one request record
    /// identical streams — same segments, variant ids, element offsets
    /// and APPLY records — whenever the chain clamp leaves `cb_inner`
    /// alone: the layouts are element-parallel, so precision changes
    /// the kernels a stream calls and nothing about the stream.
    #[test]
    fn f32_and_int16_plans_record_identical_streams(
        cb in 1usize..5,
        kb in 1usize..4,
        n in 1usize..3,
        h in 1usize..24,
        w in 1usize..24,
        spatial in any::<bool>(),
        stride in 1usize..3,
        cand in 0usize..64,
        threads in 1usize..5,
        extra_in_pad in 0usize..3,
        out_pad in 0usize..3,
        op_idx in 0usize..FusedOp::ALL.len(),
        chain in 1usize..=4,
    ) {
        let (r, pad) = if spatial { (3, 1) } else { (1, 0) };
        prop_assume!(h + 2 * pad >= r && w + 2 * pad >= r);
        let shape = ConvShape::new(n, cb * VLEN, kb * VLEN, h, w, r, r, stride, pad);
        let cands = tune::candidates(&shape);
        let b = cands[cand % cands.len()];
        let opts = LayerOptions::new(threads)
            .with_input_pad(pad + extra_in_pad)
            .with_out_pad(out_pad)
            .with_fuse(FusedOp::ALL[op_idx])
            .with_chain_limit(chain);
        let req = PlanRequest::new(shape, b, &opts);
        let (f, q) = (FwdPlan::new(&req), QuantFwdPlan::new(&req));
        prop_assert_eq!(f.blocking().cb_inner, b.cb_inner, "f32 plans are never clamped");
        prop_assert!(q.blocking().cb_inner <= chain, "{}: {:?}", shape, q.blocking());
        if q.blocking().cb_inner == b.cb_inner {
            prop_assert_eq!(f.kernel_variants(), q.kernel_variants());
            prop_assert_eq!(f.streams().len(), threads);
            for (sf, sq) in f.streams().iter().zip(q.streams()) {
                prop_assert_eq!(&sf.segments, &sq.segments);
                prop_assert_eq!(&sf.var, &sq.var);
                prop_assert_eq!(&sf.inp, &sq.inp);
                prop_assert_eq!(&sf.wt, &sq.wt);
                prop_assert_eq!(&sf.out, &sq.out);
                prop_assert_eq!(&sf.applies, &sq.applies);
            }
        } else {
            // a shorter chain means more, shorter reduction steps
            let calls = |streams: &[conv::streams::Stream]| -> usize {
                streams.iter().map(|s| s.conv_count()).sum()
            };
            prop_assert!(calls(q.streams()) > calls(f.streams()));
        }
    }
}
