//! The numeric contract of activation quantization (DESIGN.md §11.2):
//! whichever body the host dispatches to, split over whatever team
//! size, `quantize_per_channel_into` equals the scalar definition
//! `(x · inv).round_ties_even().clamp(-127, 127) as i16` bit for bit —
//! for *every* f32 bit pattern, not just finite activations.

use proptest::prelude::*;
use tensor::rng::SplitMix64;
use tensor::vnni::rne_sat_i8;
use tensor::{BlockedActs, VnniActs, VLEN};

/// The definition, spelled with the libm rounding the kernels avoid.
fn spec(v: f32) -> i16 {
    v.round_ties_even().clamp(-127.0, 127.0) as i16
}

/// One f32 drawn from the places rounding and saturation go wrong,
/// mixed with uniformly random bit patterns.
fn hostile_f32(rng: &mut SplitMix64) -> f32 {
    let r = rng.next_u64();
    let bits = (r >> 32) as u32;
    let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
    match (r >> 1) % 10 {
        // any bit pattern: NaN payloads, denormals, huge, tiny
        0..=3 => f32::from_bits(bits),
        // exact ties and their neighbours inside the i8 range
        4 => sign * ((bits % 128) as f32 + 0.5),
        5 => f32::from_bits(
            (sign * ((bits % 128) as f32 + 0.5)).to_bits().wrapping_add(bits % 3).wrapping_sub(1),
        ),
        // values straddling the saturation edges
        6 => f32::from_bits((sign * 127.0f32).to_bits().wrapping_add(bits % 5).wrapping_sub(2)),
        7 => sign * [126.5, 127.5, f32::INFINITY, 0.0, f32::MIN_POSITIVE / 2.0][bits as usize % 5],
        // beyond the i32 range of a float→int convert
        8 => sign * (2.0f32.powi(31) + (bits % 1024) as f32 * 4096.0),
        // NaN with an arbitrary payload and sign
        _ => f32::from_bits(0x7f80_0001 | bits),
    }
}

/// Scales as `requantize` makes them (`127/amax`, positive, finite)
/// with the occasional degenerate one a hostile state dict could cause.
fn hostile_scale(rng: &mut SplitMix64) -> f32 {
    let r = rng.next_u64();
    match r % 8 {
        0 => [0.0, -3.0, f32::INFINITY, f32::NAN, 1e-38, 1e38][(r >> 8) as usize % 6],
        _ => 0.01 + (r >> 40) as f32 / (1u64 << 24) as f32 * 200.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The helper every scalar path uses equals the definition.
    #[test]
    fn rounding_helper_equals_the_definition(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..4096 {
            let v = hostile_f32(&mut rng);
            prop_assert_eq!(rne_sat_i8(v), spec(v), "{:#010x} ({})", v.to_bits(), v);
        }
    }

    /// The whole pass, and its split into jobs run by a team of real
    /// threads (every size 1..=4), equal the scalar definition over
    /// arbitrary geometry — `c % 16 != 0`, any
    /// padding — and arbitrary bit patterns; the destination's physical
    /// border ends up exactly zero whatever it held before; a partial
    /// batch's zero tail quantizes to zeros.
    #[test]
    fn dispatched_quantize_equals_the_scalar_definition(
        n in 1usize..=3,
        c in 1usize..=40,
        h in 1usize..=5,
        w in 1usize..=5,
        pad in 0usize..=2,
        loaded in 1usize..=3,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SplitMix64::new(seed);
        let loaded = loaded.min(n);
        let mut src = BlockedActs::zeros(n, c, h, w, pad);
        let cb = src.cb;
        // fill the interior pixel vectors of the loaded samples (all 16
        // lanes: the contract is per storage element); border and the
        // unloaded tail stay zero, as the executor guarantees
        for s in 0..loaded {
            for b in 0..cb {
                for y in 0..h {
                    for x in 0..w {
                        let off = src.pix_offset_logical(s, b, y as isize, x as isize);
                        for v in &mut src.as_mut_slice()[off..off + VLEN] {
                            *v = hostile_f32(&mut rng);
                        }
                    }
                }
            }
        }
        let inv: Vec<f32> = (0..cb * VLEN).map(|_| hostile_scale(&mut rng)).collect();

        let chunk = src.stride_cb();
        let want: Vec<i16> = src
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, x)| spec(x * inv[i / chunk % cb * VLEN + i % VLEN]))
            .collect();

        let mut serial = VnniActs::zeros(n, c, h, w, pad);
        serial.as_mut_slice().fill(0x5555);
        serial.quantize_per_channel_into(&src, &inv);
        prop_assert_eq!(serial.as_slice(), &want[..], "serial");
        for team in 1..=4 {
            let mut pooled = VnniActs::zeros(n, c, h, w, pad);
            pooled.as_mut_slice().fill(0x5555);
            std::thread::scope(|scope| {
                for mut job in pooled.quantize_jobs(&src, &inv, team) {
                    scope.spawn(move || job.run());
                }
            });
            prop_assert_eq!(pooled.as_slice(), &want[..], "team of {}", team);
        }

        for s in 0..n {
            for b in 0..cb {
                for yp in 0..serial.hp() {
                    for xp in 0..serial.wp() {
                        let interior = (pad..pad + h).contains(&yp) && (pad..pad + w).contains(&xp);
                        if interior && s < loaded {
                            continue;
                        }
                        let off = serial
                            .pix_offset_logical(s, b, yp as isize - pad as isize, xp as isize - pad as isize);
                        prop_assert_eq!(
                            &serial.as_slice()[off..off + VLEN], &[0i16; VLEN][..],
                            "sample {} block {} pixel ({}, {}) must be zero", s, b, yp, xp
                        );
                    }
                }
            }
        }
    }
}
