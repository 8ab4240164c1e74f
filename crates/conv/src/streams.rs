//! Kernel streams: the dryrun/replay execution framework (Section II-H).
//!
//! During the *dryrun* (layer setup) each thread walks its share of the
//! convolution loop nest and, instead of calling kernels, records
//!
//! * a kernel-variant stream `var[]`,
//! * three offset streams `inp[]`, `wt[]`, `out[]`,
//! * APPLY records for fused operators,
//!
//! run-length encoded into segments (`CONV-STREAK(n)` / `APPLY`) — the
//! compact representation of Figure 2. The *replay* (every execution)
//! is Algorithm 5 verbatim: a flat loop over segments with zero index
//! arithmetic and no conditionals in the hot path, where the prefetch
//! arguments of invocation `i` are the compute offsets of invocation
//! `i + 1`.

use crate::backend::{Flavor, Kernel};
use crate::fuse::ApplyRec;
use parallel::ThreadPool;

/// One RLE segment of a thread's execution (Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    /// `n` consecutive convolution microkernel calls.
    ConvStreak(u32),
    /// One fused-operator application (index into the apply stream).
    Apply(u32),
}

/// A single thread's recorded execution.
#[derive(Clone, Debug, Default)]
pub struct Stream {
    /// RLE segments.
    pub segments: Vec<Segment>,
    /// Kernel-variant stream (indexes the plan's kernel table).
    pub var: Vec<u8>,
    /// Input sub-tensor offsets (elements).
    pub inp: Vec<u32>,
    /// Weight sub-tensor offsets (elements).
    pub wt: Vec<u32>,
    /// Output sub-tensor offsets (elements).
    pub out: Vec<u32>,
    /// APPLY records.
    pub applies: Vec<ApplyRec>,
}

impl Stream {
    /// Record one convolution call (RLE: extends the current streak).
    pub fn push_conv(&mut self, var: u8, inp: usize, wt: usize, out: usize) {
        self.var.push(var);
        self.inp.push(u32::try_from(inp).expect("input offset exceeds u32"));
        self.wt.push(u32::try_from(wt).expect("weight offset exceeds u32"));
        self.out.push(u32::try_from(out).expect("output offset exceeds u32"));
        match self.segments.last_mut() {
            Some(Segment::ConvStreak(n)) => *n += 1,
            _ => self.segments.push(Segment::ConvStreak(1)),
        }
    }

    /// Record one fused-operator application.
    pub fn push_apply(&mut self, rec: ApplyRec) {
        let idx = self.applies.len() as u32;
        self.applies.push(rec);
        self.segments.push(Segment::Apply(idx));
    }

    /// Total convolution calls recorded.
    pub fn conv_count(&self) -> usize {
        self.var.len()
    }

    /// Approximate memory footprint of the stream metadata in bytes —
    /// the paper's "compact representation" claim is testable.
    pub fn metadata_bytes(&self) -> usize {
        self.segments.len() * std::mem::size_of::<Segment>()
            + self.var.len()
            + (self.inp.len() + self.wt.len() + self.out.len()) * 4
            + self.applies.len() * std::mem::size_of::<ApplyRec>()
    }

    /// Replay this stream (Algorithm 5) with kernels of any flavour;
    /// `apply` runs the fused operator on each finished output tile
    /// (the f32 APPLY, the requantizing int16 APPLY, or a panic for
    /// plans dryrun without fusion, which record no APPLY segment).
    ///
    /// # Safety
    /// The base pointers must describe tensors laid out exactly as the
    /// dryrun assumed (same shapes, same padding).
    #[inline]
    pub unsafe fn replay<F: Flavor>(
        &self,
        kernels: &[Kernel<F>],
        inp: *const F::In,
        wt: *const F::In,
        out: *mut F::Acc,
        apply: impl Fn(&ApplyRec),
    ) {
        let mut i = 0usize;
        let last = self.var.len().saturating_sub(1);
        for seg in &self.segments {
            match *seg {
                Segment::ConvStreak(n) => {
                    for _ in 0..n {
                        // prefetch args = next invocation's sub-tensors
                        let j = if i == last { i } else { i + 1 };
                        let k = &kernels[self.var[i] as usize];
                        k.call(
                            inp.add(self.inp[i] as usize),
                            wt.add(self.wt[i] as usize),
                            out.add(self.out[i] as usize),
                            inp.add(self.inp[j] as usize),
                            wt.add(self.wt[j] as usize),
                            out.add(self.out[j] as usize),
                        );
                        i += 1;
                    }
                }
                Segment::Apply(a) => apply(&self.applies[a as usize]),
            }
        }
        debug_assert_eq!(i, self.var.len(), "segment RLE must cover every call");
    }
}

/// Replay one recorded stream per team member on `pool`: the one
/// execution loop of every streamed plan — forward, dual backward,
/// int16 forward and weight update. `apply` is the fused operator run
/// on each finished output tile.
///
/// # Safety
/// The pointers must describe tensors with exactly the geometry the
/// streams were dryrun for; the output sub-tensors the streams write
/// must be disjoint across threads.
#[inline]
pub(crate) unsafe fn replay_all<F: Flavor>(
    pool: &ThreadPool,
    streams: &[Stream],
    kernels: &[Kernel<F>],
    inp: *const F::In,
    wt: *const F::In,
    out: *mut F::Acc,
    apply: impl Fn(&ApplyRec) + Sync,
) {
    assert_eq!(pool.nthreads(), streams.len(), "plan was dryrun for a different team size");
    let (inp, wt, out) = (SendPtr::new(inp), SendPtr::new(wt), SendPtr(out));
    pool.run(|pctx| {
        // SAFETY: per this function's contract.
        unsafe { streams[pctx.tid].replay(kernels, inp.get(), wt.get(), out.get(), &apply) };
    });
}

/// Shareable raw pointer for pool regions whose threads touch disjoint
/// parts of one tensor. Accessed through a method so that RFC-2229
/// precise capture moves the whole (Sync) wrapper into the region
/// closure instead of the bare pointer field.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
// SAFETY: the wrapper only carries the address across threads; every
// dereference is an `unsafe` block whose comment argues disjointness.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as above.
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Wrap a read-only base pointer.
    pub(crate) fn new(p: *const T) -> Self {
        Self(p as *mut T)
    }

    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_merges_consecutive_convs() {
        let mut s = Stream::default();
        for i in 0..5 {
            s.push_conv(0, i, 0, i);
        }
        s.push_apply(ApplyRec { out_off: 0, kb: 0, rows: 1, cols: 1, row_stride: 16 });
        for i in 5..8 {
            s.push_conv(1, i, 0, i);
        }
        assert_eq!(
            s.segments,
            vec![Segment::ConvStreak(5), Segment::Apply(0), Segment::ConvStreak(3)]
        );
        assert_eq!(s.conv_count(), 8);
    }

    #[test]
    fn metadata_is_compact() {
        // one entry ≈ 13 bytes + segment amortization
        let mut s = Stream::default();
        for i in 0..1000 {
            s.push_conv(0, i, i, i);
        }
        assert!(s.metadata_bytes() < 1000 * 16 + 64, "{}", s.metadata_bytes());
        assert_eq!(s.segments.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn offset_overflow_is_caught() {
        let mut s = Stream::default();
        s.push_conv(0, u32::MAX as usize + 1, 0, 0);
    }
}
