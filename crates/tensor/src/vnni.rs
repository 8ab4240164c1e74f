//! Reduced-precision (int16) tensor layouts for the quantized kernels
//! (Section II-K).
//!
//! Knights Mill's `4VNNIW` (and AVX-512 VNNI's `vpdpwssd`) multiply
//! *pairs* of adjacent int16 values held in one 32-bit lane and
//! accumulate into int32. To feed that instruction with plain loads and
//! 32-bit broadcasts:
//!
//! * activations keep the natural channel order `[N][Cb][Hp][Wp][VLEN]`
//!   of i16 — a 32-bit broadcast at an even channel offset carries the
//!   channel pair `(c, c+1)`;
//! * filters interleave the channel pair innermost:
//!   `[Kb][Cb][R][S][c/2][k][2]`, so one 512-bit load yields, for every
//!   output lane `k`, the pair `(w[c][k], w[c+1][k])` packed into a
//!   32-bit lane;
//! * outputs accumulate in int32 `[N][Kb][P][Q][VLEN]` — this is why
//!   the paper's int16 kernels move the same number of output bytes as
//!   fp32 and cannot reach a 2× speedup.

use crate::align::AVec;
use crate::rng::SplitMix64;
use crate::shape::VLEN;

/// Largest magnitude representable in the symmetric int8 quantization
/// range. Values are carried in i16 VNNI containers but saturate at
/// `±127` — the symmetric choice avoids the `-128` asymmetry so a
/// quantized value can always be negated without overflow.
pub const I8_QMAX: f32 = 127.0;

/// `1.5 · 2²³`: adding and then subtracting it rounds any `|v| < 2²²`
/// to the nearest integer, ties to even (the default FP rounding mode
/// does the work when the sum drops the fraction bits).
const RNE_MAGIC: f32 = 12_582_912.0;

/// Round-to-nearest-even quantization saturating at the symmetric i8
/// edges `[-127, 127]` — `v.round_ties_even().clamp(-127, 127) as i16`
/// for every f32 bit pattern. NaN inputs quantize to 0 (`clamp` and the
/// arithmetic propagate it, Rust's saturating float→int cast zeroes
/// it), so a degenerate scale can never poison the tensor; `±Inf` and
/// anything beyond the edges pin to `±127`.
///
/// Clamping first is exact (the edges are integers) and puts the value
/// inside the range of the add/subtract rounding trick — on a baseline
/// x86-64 build `round_ties_even` is a libm call per element.
#[inline]
pub fn rne_sat_i8(v: f32) -> i16 {
    ((v.clamp(-I8_QMAX, I8_QMAX) + RNE_MAGIC) - RNE_MAGIC) as i16
}

/// Quantize a run of whole pixel vectors that share one 16-lane scale:
/// `dst[i] = rne_sat_i8(src[i] · inv[i % VLEN])`. AVX-512 hosts
/// (runtime-detected) take the vector body, which is bit-identical to
/// the scalar loop for every f32 bit pattern; the scalar loop remains
/// for every other host.
fn quantize_pixels(dst: &mut [i16], src: &[f32], inv: &[f32; VLEN]) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert_eq!(src.len() % VLEN, 0);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was detected at run time.
            unsafe { quantize_pixels_avx512(dst, src, inv) };
            return;
        }
    }
    quantize_pixels_scalar(dst, src, inv);
}

fn quantize_pixels_scalar(dst: &mut [i16], src: &[f32], inv: &[f32; VLEN]) {
    for (d, s) in dst.chunks_exact_mut(VLEN).zip(src.chunks_exact(VLEN)) {
        for ((q, x), scale) in d.iter_mut().zip(s).zip(inv) {
            *q = rne_sat_i8(x * scale);
        }
    }
}

/// Multiply, clamp to `±127`, convert with an explicit
/// round-to-nearest-even, narrow to i16. A NaN product fails the
/// ordered compare and its lane is zeroed by the masked convert (the
/// `min` has already replaced it by a finite value, so the convert
/// never sees an invalid operand); `±Inf` clamps like any large value.
///
/// # Safety
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_pixels_avx512(dst: &mut [i16], src: &[f32], inv: &[f32; VLEN]) {
    use std::arch::x86_64::*;
    const RNE: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    let scale = _mm512_loadu_ps(inv.as_ptr());
    let (lo, hi) = (_mm512_set1_ps(-I8_QMAX), _mm512_set1_ps(I8_QMAX));
    for (d, s) in dst.chunks_exact_mut(VLEN).zip(src.chunks_exact(VLEN)) {
        let v = _mm512_mul_ps(_mm512_loadu_ps(s.as_ptr()), scale);
        let ordered = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(v, v);
        let clamped = _mm512_max_ps(_mm512_min_ps(v, hi), lo);
        let q = _mm512_maskz_cvt_roundps_epi32::<RNE>(ordered, clamped);
        _mm256_storeu_si256(d.as_mut_ptr() as *mut __m256i, _mm512_cvtepi32_epi16(q));
    }
}

/// One independent share of a per-channel quantization pass: a run of
/// consecutive `(n, cb)` chunks of the destination with the matching
/// source. [`VnniActs::quantize_jobs`] makes them; a thread team runs
/// one each. The pass is element-wise, so any split gives the same
/// bits.
pub struct QuantizeJob<'a> {
    dst: &'a mut [i16],
    src: &'a [f32],
    inv_scale: &'a [f32],
    /// Flat index `n · cb + cb` of the first chunk.
    first: usize,
    /// Elements per chunk.
    chunk: usize,
    cb: usize,
}

impl QuantizeJob<'_> {
    /// Quantize this job's chunks.
    pub fn run(&mut self) {
        let chunks = self.dst.chunks_exact_mut(self.chunk).zip(self.src.chunks_exact(self.chunk));
        for (i, (d, s)) in chunks.enumerate() {
            let c0 = (self.first + i) % self.cb * VLEN;
            let inv = self.inv_scale[c0..c0 + VLEN].try_into().expect("one channel block");
            quantize_pixels(d, s, inv);
        }
    }
}

/// Blocked int16 activations `[N][Cb][Hp][Wp][VLEN]`.
#[derive(Clone, Debug)]
pub struct VnniActs {
    pub n: usize,
    pub c: usize,
    pub cb: usize,
    pub h: usize,
    pub w: usize,
    pub pad: usize,
    data: AVec<i16>,
}

impl VnniActs {
    /// Zero tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize, pad: usize) -> Self {
        let cb = c.div_ceil(VLEN);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        Self { n, c, cb, h, w, pad, data: AVec::zeroed(n * cb * hp * wp * VLEN) }
    }

    /// Deterministic small random interior (range safe for long i32
    /// accumulation chains); padding stays zero.
    pub fn random(n: usize, c: usize, h: usize, w: usize, pad: usize, seed: u64) -> Self {
        let mut t = Self::zeros(n, c, h, w, pad);
        let mut rng = SplitMix64::new(seed);
        for n_ in 0..n {
            for c_ in 0..c {
                for h_ in 0..h {
                    for w_ in 0..w {
                        t.set(n_, c_, h_, w_, rng.next_i16());
                    }
                }
            }
        }
        t
    }

    /// Padded height.
    #[inline]
    pub fn hp(&self) -> usize {
        self.h + 2 * self.pad
    }

    /// Padded width.
    #[inline]
    pub fn wp(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Element stride between padded rows.
    #[inline]
    pub fn stride_h(&self) -> usize {
        self.wp() * VLEN
    }

    /// Element stride between channel blocks.
    #[inline]
    pub fn stride_cb(&self) -> usize {
        self.hp() * self.stride_h()
    }

    /// Element stride between samples.
    #[inline]
    pub fn stride_n(&self) -> usize {
        self.cb * self.stride_cb()
    }

    /// Flat offset of a pixel vector by logical coordinates.
    #[inline]
    pub fn pix_offset_logical(&self, n: usize, cb: usize, h: isize, w: isize) -> usize {
        let hp = h + self.pad as isize;
        let wp = w + self.pad as isize;
        debug_assert!(hp >= 0 && (hp as usize) < self.hp());
        debug_assert!(wp >= 0 && (wp as usize) < self.wp());
        ((n * self.cb + cb) * self.hp() + hp as usize) * self.stride_h() + wp as usize * VLEN
    }

    /// Read an element by logical channel and spatial coords.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> i16 {
        self.data[self.pix_offset_logical(n, c / VLEN, h as isize, w as isize) + c % VLEN]
    }

    /// Write an element by logical channel and spatial coords.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: i16) {
        let off = self.pix_offset_logical(n, c / VLEN, h as isize, w as isize) + c % VLEN;
        self.data[off] = v;
    }

    /// Quantize a f32 blocked tensor with the given scale
    /// (`q = round(x / scale)`, saturating).
    pub fn quantize(src: &crate::BlockedActs, scale: f32) -> Self {
        let mut out = Self::zeros(src.n, src.c, src.h, src.w, src.pad);
        let inv = 1.0 / scale;
        for (d, s) in out.data.as_mut_slice().iter_mut().zip(src.as_slice()) {
            *d = (s * inv).round().clamp(i16::MIN as f32, i16::MAX as f32) as i16;
        }
        out
    }

    /// Per-channel int8-range quantization into this tensor (the
    /// reusable int16 image of an activation blob).
    ///
    /// `q[c] = rne_sat_i8(x[c] · inv_scale[c])` — round-to-nearest-even,
    /// saturating at `±127`. `inv_scale` must cover the padded channel
    /// count (`cb · VLEN`). Geometry (incl. physical padding) must match
    /// `src` exactly; the zero padding quantizes to exact zeros, so a
    /// sample's quantized image is independent of its batch neighbours.
    pub fn quantize_per_channel_into(&mut self, src: &crate::BlockedActs, inv_scale: &[f32]) {
        self.quantize_jobs(src, inv_scale, 1).iter_mut().for_each(QuantizeJob::run);
    }

    /// [`Self::quantize_per_channel_into`] split into `parts`
    /// independent jobs over balanced runs of `(n, cb)` chunks, for a
    /// thread team to run one each (some are empty when there are
    /// fewer chunks than parts).
    pub fn quantize_jobs<'a>(
        &'a mut self,
        src: &'a crate::BlockedActs,
        inv_scale: &'a [f32],
        parts: usize,
    ) -> Vec<QuantizeJob<'a>> {
        assert_eq!(
            (self.n, self.cb, self.h, self.w, self.pad),
            (src.n, src.cb, src.h, src.w, src.pad),
            "quantize geometry mismatch"
        );
        assert!(inv_scale.len() >= self.cb * VLEN, "inv_scale shorter than padded channels");
        let (chunk, cb) = (self.stride_cb().max(1), self.cb);
        let chunks = self.data.len() / chunk;
        let (mut dst, mut src) = (self.data.as_mut_slice(), src.as_slice());
        (0..parts)
            .map(|part| {
                let (first, end) = (chunks * part / parts, chunks * (part + 1) / parts);
                let (d, d_rest) = std::mem::take(&mut dst).split_at_mut((end - first) * chunk);
                let (s, s_rest) = src.split_at((end - first) * chunk);
                (dst, src) = (d_rest, s_rest);
                QuantizeJob { dst: d, src: s, inv_scale, first, chunk, cb }
            })
            .collect()
    }

    /// Raw pointer.
    #[inline]
    pub fn as_ptr(&self) -> *const i16 {
        self.data.as_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[i16] {
        self.data.as_slice()
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [i16] {
        self.data.as_mut_slice()
    }
}

/// VNNI-interleaved int16 filter `[Kb][Cb][R][S][c/2][k][2]`.
#[derive(Clone, Debug)]
pub struct VnniFilter {
    pub k: usize,
    pub c: usize,
    pub kb: usize,
    pub cb: usize,
    pub r: usize,
    pub s: usize,
    data: AVec<i16>,
}

impl VnniFilter {
    /// Zero filter.
    pub fn zeros(k: usize, c: usize, r: usize, s: usize) -> Self {
        let (kb, cb) = (k.div_ceil(VLEN), c.div_ceil(VLEN));
        Self { k, c, kb, cb, r, s, data: AVec::zeroed(kb * cb * r * s * VLEN * VLEN) }
    }

    /// Deterministic small random filter.
    pub fn random(k: usize, c: usize, r: usize, s: usize, seed: u64) -> Self {
        let mut t = Self::zeros(k, c, r, s);
        let mut rng = SplitMix64::new(seed);
        for k_ in 0..k {
            for c_ in 0..c {
                for r_ in 0..r {
                    for s_ in 0..s {
                        t.set(k_, c_, r_, s_, rng.next_i16());
                    }
                }
            }
        }
        t
    }

    /// Element stride between `(r, s)` taps: one interleaved panel.
    #[inline]
    pub fn stride_s(&self) -> usize {
        VLEN * VLEN
    }

    /// Flat offset of the pair-interleaved panel at `(kb, cb, r, s)`.
    #[inline]
    pub fn panel_offset(&self, kb: usize, cb: usize, r: usize, s: usize) -> usize {
        debug_assert!(kb < self.kb && cb < self.cb && r < self.r && s < self.s);
        (((kb * self.cb + cb) * self.r + r) * self.s + s) * self.stride_s()
    }

    /// Read element by logical channels: pair-interleaved addressing.
    #[inline]
    pub fn get(&self, k: usize, c: usize, r: usize, s: usize) -> i16 {
        let base = self.panel_offset(k / VLEN, c / VLEN, r, s);
        let (cp, parity) = ((c % VLEN) / 2, c % 2);
        self.data[base + (cp * VLEN + k % VLEN) * 2 + parity]
    }

    /// Write element by logical channels.
    #[inline]
    pub fn set(&mut self, k: usize, c: usize, r: usize, s: usize, v: i16) {
        let base = self.panel_offset(k / VLEN, c / VLEN, r, s);
        let (cp, parity) = ((c % VLEN) / 2, c % 2);
        let off = base + (cp * VLEN + k % VLEN) * 2 + parity;
        self.data[off] = v;
    }

    /// Symmetric per-output-channel quantization with the per-input-
    /// channel activation scales folded into the weights.
    ///
    /// The effective weight is `w'[k,c] = w[k,c] · act_scale[c]`; each
    /// output channel gets `scale[k] = amax_c,r,s |w'[k]| / 127` (1.0
    /// for an all-zero channel, so downstream requantization never
    /// divides by zero or produces NaN) and `q = rne_sat_i8(w'/scale[k])`.
    /// Because the activation scales are folded in here, `scale[k]` is
    /// exactly the requantization multiplier that converts the int32
    /// accumulator back to f32. The returned vector covers the padded
    /// channel count (`kb · VLEN`, pad lanes 1.0).
    pub fn quantize_per_k(src: &crate::BlockedFilter, act_scale: &[f32]) -> (Self, Vec<f32>) {
        assert!(act_scale.len() >= src.c, "act_scale shorter than input channels");
        let mut out = Self::zeros(src.k, src.c, src.r, src.s);
        // Both layouts share the `[Kb][Cb][R][S]` panel order and the
        // panel size; inside a panel the source is `[c][k]` and the
        // destination `[c/2][k][2]`. A panel row is one input channel
        // times a vector of output channels, so both passes walk `k`
        // vectors. Rows past `src.c` and lanes past `src.k` are never
        // read and keep their zeros.
        let panel = VLEN * VLEN;
        let taps = src.r * src.s;
        let logical = |p: usize| {
            let (k0, c0) = (p / (src.cb * taps) * VLEN, p / taps % src.cb * VLEN);
            (k0, VLEN.min(src.k - k0), c0, VLEN.min(src.c - c0))
        };
        // pass 1: amax over (c, r, s) per output channel; an all-zero
        // channel (and every pad lane) gets the neutral scale 1.0
        let mut mult = vec![0.0f32; out.kb * VLEN];
        for (p, w) in src.as_slice().chunks_exact(panel).enumerate() {
            let (k0, lanes, c0, rows) = logical(p);
            let amax = &mut mult[k0..k0 + lanes];
            for (row, &sx) in w.chunks_exact(VLEN).zip(&act_scale[c0..c0 + rows]) {
                for (a, x) in amax.iter_mut().zip(row) {
                    *a = a.max((x * sx).abs());
                }
            }
        }
        for m in mult.iter_mut() {
            *m = if *m > 0.0 { *m / I8_QMAX } else { 1.0 };
        }
        let inv: Vec<f32> = mult.iter().map(|m| 1.0 / m).collect();
        // pass 2: quantize into the pair-interleaved panels
        let panels = src.as_slice().chunks_exact(panel);
        for (p, (w, q)) in panels.zip(out.data.as_mut_slice().chunks_exact_mut(panel)).enumerate() {
            let (k0, lanes, c0, rows) = logical(p);
            let inv = &inv[k0..k0 + lanes];
            for (c, (row, &sx)) in w.chunks_exact(VLEN).zip(&act_scale[c0..c0 + rows]).enumerate() {
                let pair = &mut q[(c / 2) * 2 * VLEN..(c / 2 + 1) * 2 * VLEN];
                for (k, (x, i)) in row.iter().zip(inv).enumerate() {
                    pair[k * 2 + c % 2] = rne_sat_i8(x * sx * i);
                }
            }
        }
        (out, mult)
    }

    /// Quantize a f32 blocked filter with the given scale.
    pub fn quantize(src: &crate::BlockedFilter, scale: f32) -> Self {
        let mut out = Self::zeros(src.k, src.c, src.r, src.s);
        let inv = 1.0 / scale;
        for k in 0..src.k {
            for c in 0..src.c {
                for r in 0..src.r {
                    for s in 0..src.s {
                        let q = (src.get(k, c, r, s) * inv)
                            .round()
                            .clamp(i16::MIN as f32, i16::MAX as f32)
                            as i16;
                        out.set(k, c, r, s, q);
                    }
                }
            }
        }
        out
    }

    /// Raw pointer.
    #[inline]
    pub fn as_ptr(&self) -> *const i16 {
        self.data.as_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[i16] {
        self.data.as_slice()
    }
}

/// Blocked int32 tensor `[N][Kb][P][Q][VLEN]` — the accumulator/output
/// side of the quantized kernels.
#[derive(Clone, Debug)]
pub struct BlockedI32 {
    pub n: usize,
    pub k: usize,
    pub kb: usize,
    pub h: usize,
    pub w: usize,
    data: AVec<i32>,
}

impl BlockedI32 {
    /// Zero tensor (outputs carry no physical padding).
    pub fn zeros(n: usize, k: usize, h: usize, w: usize) -> Self {
        let kb = k.div_ceil(VLEN);
        Self { n, k, kb, h, w, data: AVec::zeroed(n * kb * h * w * VLEN) }
    }

    /// Element stride between rows.
    #[inline]
    pub fn stride_h(&self) -> usize {
        self.w * VLEN
    }

    /// Element stride between channel blocks.
    #[inline]
    pub fn stride_kb(&self) -> usize {
        self.h * self.stride_h()
    }

    /// Element stride between samples.
    #[inline]
    pub fn stride_n(&self) -> usize {
        self.kb * self.stride_kb()
    }

    /// Flat offset of a pixel vector.
    #[inline]
    pub fn pix_offset(&self, n: usize, kb: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && kb < self.kb && h < self.h && w < self.w);
        ((n * self.kb + kb) * self.h + h) * self.stride_h() + w * VLEN
    }

    /// Read element by logical channel.
    #[inline]
    pub fn get(&self, n: usize, k: usize, h: usize, w: usize) -> i32 {
        self.data[self.pix_offset(n, k / VLEN, h, w) + k % VLEN]
    }

    /// Write element by logical channel.
    #[inline]
    pub fn set(&mut self, n: usize, k: usize, h: usize, w: usize, v: i32) {
        let off = self.pix_offset(n, k / VLEN, h, w) + k % VLEN;
        self.data[off] = v;
    }

    /// Zero all elements.
    pub fn zero(&mut self) {
        self.data.fill(0);
    }

    /// Dequantize into a f32 blocked tensor with combined scale
    /// `x = q · scale` (where `scale = in_scale · w_scale`).
    pub fn dequantize(&self, scale: f32) -> crate::BlockedActs {
        let mut out = crate::BlockedActs::zeros(self.n, self.k, self.h, self.w, 0);
        for (d, s) in out.as_mut_slice().iter_mut().zip(self.data.as_slice()) {
            *d = *s as f32 * scale;
        }
        out
    }

    /// Raw mutable pointer.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut i32 {
        self.data.as_mut_ptr()
    }

    /// Raw const pointer.
    #[inline]
    pub fn as_ptr(&self) -> *const i32 {
        self.data.as_ptr()
    }

    /// Backing storage.
    pub fn as_slice(&self) -> &[i32] {
        self.data.as_slice()
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        self.data.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acts_pairing_is_natural_order() {
        // channels are stored in natural order: a 32-bit broadcast at an
        // even lane reads channels (c, c+1)
        let mut a = VnniActs::zeros(1, 16, 1, 1, 0);
        for c in 0..16 {
            a.set(0, c, 0, 0, c as i16);
        }
        let s = a.as_slice();
        for (c, &v) in s.iter().enumerate().take(16) {
            assert_eq!(v, c as i16);
        }
    }

    #[test]
    fn filter_pair_interleave() {
        let mut f = VnniFilter::zeros(16, 16, 1, 1);
        f.set(3, 4, 0, 0, 40); // even channel of pair 2
        f.set(3, 5, 0, 0, 50); // odd channel of pair 2
        let s = f.as_slice();
        // pair cp=2, k=3: offset (2*16+3)*2 = 70, parity 0/1
        assert_eq!(s[70], 40);
        assert_eq!(s[71], 50);
    }

    #[test]
    fn filter_get_set_roundtrip() {
        let mut f = VnniFilter::zeros(32, 48, 3, 3);
        f.set(17, 33, 2, 1, -7);
        assert_eq!(f.get(17, 33, 2, 1), -7);
        assert_eq!(f.get(17, 32, 2, 1), 0);
    }

    #[test]
    fn quantize_dequantize_roundtrip() {
        let src = crate::BlockedActs::random(1, 16, 4, 4, 0, 3);
        let q = VnniActs::quantize(&src, 1.0 / 256.0);
        for c in 0..16 {
            for h in 0..4 {
                for w in 0..4 {
                    let x = src.get(0, c, h, w);
                    let back = q.get(0, c, h, w) as f32 / 256.0;
                    assert!((x - back).abs() <= 0.5 / 256.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn rne_sat_rounds_to_even_and_saturates() {
        assert_eq!(rne_sat_i8(0.5), 0);
        assert_eq!(rne_sat_i8(1.5), 2);
        assert_eq!(rne_sat_i8(2.5), 2);
        assert_eq!(rne_sat_i8(-0.5), 0);
        assert_eq!(rne_sat_i8(-1.5), -2);
        assert_eq!(rne_sat_i8(1000.0), 127);
        assert_eq!(rne_sat_i8(-1000.0), -127);
        assert_eq!(rne_sat_i8(f32::NAN), 0);
        assert_eq!(rne_sat_i8(f32::INFINITY), 127);
    }

    #[test]
    fn scalar_and_dispatched_bodies_agree_on_hostile_values() {
        // the scalar body is what non-AVX-512 hosts run; on an AVX-512
        // host the dispatcher never reaches it, so pin it here
        let src = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            1.5,
            2.5,
            -0.5,
            126.5,
            127.49,
            127.5,
            -127.5,
            3e9,
            -3e9,
            1e-45,
            -0.0,
        ];
        for scale in [1.0, 0.999_999_94, 64.0, f32::INFINITY, f32::NAN, 0.0, -1.0] {
            let inv = [scale; VLEN];
            let (mut scalar, mut dispatched) = ([1i16; VLEN], [1i16; VLEN]);
            quantize_pixels_scalar(&mut scalar, &src, &inv);
            quantize_pixels(&mut dispatched, &src, &inv);
            assert_eq!(scalar, dispatched, "scale {scale}");
            for (q, x) in scalar.iter().zip(src) {
                let want = (x * scale).round_ties_even().clamp(-I8_QMAX, I8_QMAX) as i16;
                assert_eq!(*q, want, "{x} · {scale}");
            }
        }
    }

    #[test]
    fn per_channel_quantize_respects_scales_and_padding() {
        let mut src = crate::BlockedActs::zeros(1, 32, 3, 3, 1);
        src.set(0, 0, 1, 1, 0.5);
        src.set(0, 17, 0, 2, -0.25);
        let mut inv = vec![1.0f32; 32];
        inv[0] = 100.0; // scale 0.01
        inv[17] = 8.0;
        let mut q = VnniActs::zeros(1, 32, 3, 3, 1);
        q.quantize_per_channel_into(&src, &inv);
        assert_eq!(q.get(0, 0, 1, 1), 50);
        assert_eq!(q.get(0, 17, 0, 2), -2);
        // physical padding must stay exactly zero
        let off = q.pix_offset_logical(0, 0, -1, -1);
        for v in 0..VLEN {
            assert_eq!(q.as_slice()[off + v], 0);
        }
    }

    #[test]
    fn filter_per_k_quantization_is_symmetric_and_safe() {
        let mut w = crate::BlockedFilter::zeros(32, 16, 1, 1);
        for c in 0..16 {
            w.set(0, c, 0, 0, 0.1 * (c as f32 + 1.0));
            // channel 1 stays all-zero (degenerate)
        }
        let act_scale = vec![0.5f32; 16];
        let (q, mult) = VnniFilter::quantize_per_k(&w, &act_scale);
        assert_eq!(mult.len(), 32);
        // amax of k=0 lands exactly on ±127
        assert_eq!(q.get(0, 15, 0, 0), 127);
        // degenerate all-zero output channel: safe scale, zero weights
        assert_eq!(mult[1], 1.0);
        assert!(mult.iter().all(|m| m.is_finite() && *m > 0.0));
        assert_eq!(q.get(1, 3, 0, 0), 0);
        // round trip within half a step
        for (c, &sx) in act_scale.iter().enumerate() {
            let back = q.get(0, c, 0, 0) as f32 * mult[0] / sx;
            let err = (back - w.get(0, c, 0, 0)).abs();
            assert!(err <= 0.5 * mult[0] / sx + 1e-6, "c={c} err={err}");
        }
    }

    #[test]
    fn i32_out_roundtrip() {
        let mut o = BlockedI32::zeros(2, 32, 3, 3);
        o.set(1, 31, 2, 2, -12345);
        assert_eq!(o.get(1, 31, 2, 2), -12345);
        let f = o.dequantize(0.5);
        assert_eq!(f.get(1, 31, 2, 2), -6172.5);
    }
}
