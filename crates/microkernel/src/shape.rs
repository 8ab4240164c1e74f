//! Microkernel descriptors — the "arguments" of kernel generation.
//!
//! A descriptor captures everything a generated kernel bakes into its
//! instruction stream: register blocking factors, tensor strides (in
//! *elements*), the number of input-channel blocks reduced inside one
//! invocation, and whether accumulators start from zero or from the
//! output tensor. The scalar oracle kernels (this crate) and the JIT
//! (`jit` crate) consume the same descriptors, so an engine can switch
//! between them without touching its loop structure.

use tensor::VLEN;

/// Descriptor of a forward (and, via duality, backward) microkernel.
///
/// One invocation computes an `RBP × RBQ` tile of output pixel vectors
/// for a single output-channel block, reducing over `cb_inner` input
/// channel blocks and the full `R × S` filter window:
///
/// ```text
/// for cb in 0..cb_inner:
///   for (r, s) in R × S:
///     for c in 0..VLEN:
///       w = W[cb][r][s][c][·]                (one vector load)
///       for (p, q) in RBP × RBQ:
///         O[p][q][·] += broadcast(I[cb][p·stride + r][q·stride + s][c]) · w
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelShape {
    /// Register-blocking rows (output spatial H direction).
    pub rbp: usize,
    /// Register-blocking columns (output spatial W direction).
    pub rbq: usize,
    /// Filter height.
    pub r: usize,
    /// Filter width.
    pub s: usize,
    /// Input spatial stride.
    pub stride: usize,
    /// Input-channel blocks reduced inside the kernel (≥ 1). 1×1 layers
    /// pull the whole `Cb` loop inside (Section II-C); spatial layers
    /// keep it outside (`cb_inner == 1`).
    pub cb_inner: usize,
    /// Elements between consecutive input rows (`Wp · VLEN`).
    pub in_row_stride: usize,
    /// Elements between input channel blocks (`Hp · Wp · VLEN`).
    pub in_cb_stride: usize,
    /// Elements between consecutive output rows.
    pub out_row_stride: usize,
    /// Elements between consecutive output pixels (normally `VLEN`;
    /// the backward 1×1 duality writes strided pixels).
    pub out_col_stride: usize,
    /// Zero-initialize accumulators instead of loading the output tile
    /// (used for the first `cb` pass when the output is not pre-zeroed).
    pub init_zero: bool,
    /// Issue software prefetches for the three prefetch pointers.
    pub prefetch: bool,
}

impl KernelShape {
    /// Accumulator registers required — must stay within the register
    /// budget (32 zmm minus weights/broadcast scratch).
    pub fn accumulators(&self) -> usize {
        self.rbp * self.rbq
    }

    /// FLOPs of one invocation.
    pub fn flops(&self) -> u64 {
        2 * (self.cb_inner * VLEN * VLEN * self.rbp * self.rbq * self.r * self.s) as u64
    }

    /// Element offset of the input pixel feeding output pixel `(p, q)`
    /// at filter tap `(r, s)` and channel block `cb`.
    #[inline]
    pub fn in_off(&self, cb: usize, r: usize, s: usize, p: usize, q: usize) -> usize {
        cb * self.in_cb_stride
            + (p * self.stride + r) * self.in_row_stride
            + (q * self.stride + s) * VLEN
    }

    /// Element offset of the weight panel `(cb, r, s)` (layout
    /// `[cb][r][s][c][k]`, one `VLEN×VLEN` panel per tap).
    #[inline]
    pub fn wt_off(&self, cb: usize, r: usize, s: usize) -> usize {
        ((cb * self.r + r) * self.s + s) * VLEN * VLEN
    }

    /// Element offset of output pixel `(p, q)`.
    #[inline]
    pub fn out_off(&self, p: usize, q: usize) -> usize {
        p * self.out_row_stride + q * self.out_col_stride
    }

    /// Extents (in elements) of the three tensors one invocation may
    /// touch — see [`Extents`]. The input extent covers every embedded
    /// broadcast *and* every software prefetch the assemblers emit:
    /// the deepest access is channel block `cb_inner - 1`, input row
    /// `(rbp-1)·stride + r - 1`, input column `(rbq-1)·stride + s - 1`,
    /// channel `VLEN - 1`.
    pub fn extents(&self) -> Extents {
        let rows = (self.rbp - 1) * self.stride + self.r - 1;
        let cols = (self.rbq - 1) * self.stride + self.s;
        Extents {
            input: (self.cb_inner - 1) * self.in_cb_stride
                + rows * self.in_row_stride
                + cols * VLEN,
            weights: self.cb_inner * self.r * self.s * VLEN * VLEN,
            output: (self.rbp - 1) * self.out_row_stride
                + (self.rbq - 1) * self.out_col_stride
                + VLEN,
        }
    }

    /// Element offsets of the `rbp × rbq` output-tile vectors — the
    /// exact set of vectors one invocation stores (each exactly once).
    /// Writes anywhere else would corrupt physical output padding,
    /// which padded fused plans require to stay zero.
    pub fn out_tile_offsets(&self) -> Vec<usize> {
        let mut offs = Vec::with_capacity(self.rbp * self.rbq);
        for p in 0..self.rbp {
            for q in 0..self.rbq {
                offs.push(self.out_off(p, q));
            }
        }
        offs
    }

    /// Validate invariants that both backends rely on.
    pub fn validate(&self) {
        assert!(self.rbp >= 1 && self.rbq >= 1, "empty register block");
        assert!(self.accumulators() <= 28, "register blocking exceeds the zmm budget");
        assert!(self.r >= 1 && self.s >= 1 && self.stride >= 1);
        assert!(self.cb_inner >= 1);
        assert!(self.in_row_stride >= VLEN && self.out_row_stride >= VLEN);
        assert!(self.out_col_stride >= VLEN);
        if self.cb_inner > 1 {
            assert!(self.in_cb_stride > 0, "cb_inner > 1 requires a channel-block stride");
        }
    }
}

/// Tensor extents (in *elements*) that one kernel invocation may
/// touch, counted from each of the three compute base pointers.
///
/// These are the contracts a generated kernel is verified against
/// (`kver`): every displacement the instruction stream can produce —
/// across all loop-counter values, prefetches included — must fall
/// inside `[0, extent)` of its tensor. They are *tight*: the last
/// element of each extent is reachable by some access of the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extents {
    /// Input-activation elements reachable from the input pointer.
    pub input: usize,
    /// Weight (or dO, for the update kernel) elements reachable from
    /// the second pointer.
    pub weights: usize,
    /// Output (or dW) elements reachable from the third pointer.
    pub output: usize,
}

/// Descriptor of a weight-gradient microkernel (Section II-J).
///
/// One invocation accumulates a single `VLEN×VLEN` panel `dW[·][·]` of
/// one filter tap, sweeping a `BP × BQ` block of output pixels:
///
/// ```text
/// for (p, q) in BP × BQ:
///   g = dO[p][q][·]                          (one vector load)
///   for c in 0..VLEN:
///     dW[c][·] += broadcast(I[p·stride + r][q·stride + s][c]) · g
/// ```
///
/// The input pointer is passed pre-offset to tap `(r, s)`, so the shape
/// only needs strides.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UpdShape {
    /// Spatial blocking rows (output H direction).
    pub bp: usize,
    /// Spatial blocking columns (output W direction).
    pub bq: usize,
    /// Input spatial stride.
    pub stride: usize,
    /// Elements between consecutive input rows.
    pub in_row_stride: usize,
    /// Elements between consecutive dO rows.
    pub do_row_stride: usize,
    /// Issue software prefetches.
    pub prefetch: bool,
}

impl UpdShape {
    /// FLOPs of one invocation.
    pub fn flops(&self) -> u64 {
        2 * (self.bp * self.bq * VLEN * VLEN) as u64
    }

    /// Element offset of the input pixel for output pixel `(p, q)`.
    #[inline]
    pub fn in_off(&self, p: usize, q: usize) -> usize {
        p * self.stride * self.in_row_stride + q * self.stride * VLEN
    }

    /// Element offset of the dO pixel `(p, q)`.
    #[inline]
    pub fn do_off(&self, p: usize, q: usize) -> usize {
        p * self.do_row_stride + q * VLEN
    }

    /// Extents (in elements) of the three tensors one invocation may
    /// touch: input broadcasts up to row `(bp-1)·stride`, column
    /// `(bq-1)·stride·VLEN + VLEN - 1`; dO vectors up to pixel
    /// `(bp-1, bq-1)`; one `VLEN × VLEN` dW panel.
    pub fn extents(&self) -> Extents {
        Extents {
            input: (self.bp - 1) * self.stride * self.in_row_stride
                + (self.bq - 1) * self.stride * VLEN
                + VLEN,
            weights: (self.bp - 1) * self.do_row_stride + (self.bq - 1) * VLEN + VLEN,
            output: VLEN * VLEN,
        }
    }

    /// Element offsets of the `VLEN` dW-panel vectors one invocation
    /// loads and stores (each exactly once).
    pub fn out_tile_offsets(&self) -> Vec<usize> {
        (0..VLEN).map(|c| c * VLEN).collect()
    }

    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.bp >= 1 && self.bq >= 1, "empty spatial block");
        assert!(self.stride >= 1);
        assert!(self.in_row_stride >= VLEN && self.do_row_stride >= VLEN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> KernelShape {
        KernelShape {
            rbp: 2,
            rbq: 14,
            r: 3,
            s: 3,
            stride: 1,
            cb_inner: 1,
            in_row_stride: 58 * VLEN,
            in_cb_stride: 58 * 58 * VLEN,
            out_row_stride: 56 * VLEN,
            out_col_stride: VLEN,
            init_zero: false,
            prefetch: false,
        }
    }

    #[test]
    fn offsets_are_consistent() {
        let k = shape();
        k.validate();
        assert_eq!(k.in_off(0, 0, 0, 0, 0), 0);
        assert_eq!(k.in_off(0, 1, 0, 0, 0), k.in_row_stride);
        assert_eq!(k.in_off(0, 0, 1, 0, 1), 2 * VLEN);
        #[allow(clippy::identity_op)] // keep the (r * S + s) shape visible
        let rs = 1 * 3 + 2;
        assert_eq!(k.wt_off(0, 1, 2), rs * 256);
        assert_eq!(k.out_off(1, 3), 56 * VLEN + 3 * VLEN);
        assert_eq!(k.accumulators(), 28);
        assert_eq!(k.flops(), 2 * 256 * 28 * 9);
    }

    #[test]
    #[should_panic(expected = "zmm budget")]
    fn rejects_oversized_register_block() {
        let mut k = shape();
        k.rbp = 4;
        k.rbq = 14;
        k.validate();
    }

    #[test]
    fn strided_kernel_offsets() {
        let mut k = shape();
        k.stride = 2;
        k.r = 1;
        k.s = 1;
        assert_eq!(k.in_off(0, 0, 0, 0, 1), 2 * VLEN);
        assert_eq!(k.in_off(0, 0, 0, 1, 0), 2 * k.in_row_stride);
    }

    #[test]
    fn extents_cover_the_deepest_access() {
        let k = shape();
        let e = k.extents();
        // deepest broadcast: cb = 0, tap (2, 2), pixel (1, 13), c = 15
        assert_eq!(e.input, k.in_off(k.cb_inner - 1, 2, 2, 1, 13) + VLEN);
        // one weight block of r·s panels: the last panel plus itself
        assert_eq!(e.weights, k.wt_off(k.cb_inner - 1, 2, 2) + VLEN * VLEN);
        // last output vector
        assert_eq!(e.output, k.out_off(1, 13) + VLEN);
        // every tile offset is inside the output extent
        let tiles = k.out_tile_offsets();
        assert_eq!(tiles.len(), k.accumulators());
        assert!(tiles.iter().all(|&t| t + VLEN <= e.output));
    }

    #[test]
    fn extents_scale_with_cb_inner_and_stride() {
        let mut k = shape();
        k.cb_inner = 4;
        assert_eq!(k.extents().input, 3 * k.in_cb_stride + shape().extents().input);
        assert_eq!(k.extents().weights, 4 * k.r * k.s * VLEN * VLEN);
        let mut k = shape();
        k.stride = 2;
        let e = k.extents();
        assert_eq!(e.input, ((k.rbp - 1) * 2 + 3 - 1) * k.in_row_stride + (13 * 2 + 3) * VLEN);
    }

    #[test]
    fn upd_extents_cover_the_deepest_access() {
        let u = UpdShape {
            bp: 4,
            bq: 14,
            stride: 2,
            in_row_stride: 30 * VLEN,
            do_row_stride: 14 * VLEN,
            prefetch: false,
        };
        let e = u.extents();
        assert_eq!(e.input, u.in_off(3, 13) + VLEN);
        assert_eq!(e.weights, u.do_off(3, 13) + VLEN);
        assert_eq!(e.output, VLEN * VLEN);
        assert_eq!(u.out_tile_offsets(), (0..VLEN).map(|c| c * VLEN).collect::<Vec<_>>());
    }

    #[test]
    fn upd_shape_offsets() {
        let u = UpdShape {
            bp: 4,
            bq: 14,
            stride: 2,
            in_row_stride: 30 * VLEN,
            do_row_stride: 14 * VLEN,
            prefetch: false,
        };
        u.validate();
        assert_eq!(u.in_off(1, 1), 2 * 30 * VLEN + 2 * VLEN);
        assert_eq!(u.do_off(1, 1), 14 * VLEN + VLEN);
        assert_eq!(u.flops(), 2 * 4 * 14 * 256);
    }
}
