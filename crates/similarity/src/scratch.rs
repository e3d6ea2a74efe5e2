//! Per-worker scratch buffers for the similarity kernels.
//!
//! Every hot kernel (bit-parallel Levenshtein, Jaro match flags, the blocked
//! Myers vectors) needs a handful of working buffers.  Allocating them per
//! call dominated the kernel cost in the seed implementation; instead each
//! worker thread owns one [`SimScratch`] that the kernels borrow for the
//! duration of a single call.  Buffers only ever grow, so a warmed-up worker
//! performs zero heap allocations per pair evaluation (counted under a
//! counting allocator by `tests/tests/prefix_probing_serving.rs`).
//!
//! The `peq` table is the only buffer with a non-trivial reset discipline:
//! clearing all 256 entries per call would cost more than a short kernel
//! run, so kernels set only the bytes of their pattern and clear exactly
//! those bytes before returning.

use std::cell::RefCell;

/// Reusable working memory for the string kernels.  One per worker thread,
/// accessed through [`with_scratch`].
#[derive(Debug)]
pub struct SimScratch {
    /// Myers pattern-match bitvectors, single-word kernel: `peq[c]` has bit
    /// `i` set iff `pattern[i] == c`.  Must be all-zero between calls (the
    /// kernels clear the bytes they touched).
    pub(crate) peq: Box<[u64; 256]>,
    /// Myers pattern-match bitvectors, blocked kernel: `peq_blocks[c * blocks
    /// + j]` is the `Eq` word of block `j`.  Same all-zero-between-calls
    /// discipline as `peq`.
    pub(crate) peq_blocks: Vec<u64>,
    /// Blocked Myers vertical positive/negative delta vectors.
    pub(crate) pv: Vec<u64>,
    pub(crate) mv: Vec<u64>,
    /// Jaro match flags for both sides.
    pub(crate) flags_a: Vec<bool>,
    pub(crate) flags_b: Vec<bool>,
}

impl SimScratch {
    fn new() -> Self {
        SimScratch {
            peq: Box::new([0u64; 256]),
            peq_blocks: Vec::new(),
            pv: Vec::new(),
            mv: Vec::new(),
            flags_a: Vec::new(),
            flags_b: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Runs `f` with this thread's kernel scratch.  Kernels never nest (no
/// kernel calls another kernel while holding the scratch), so the borrow is
/// always available.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_reusable() {
        with_scratch(|s| {
            s.pv.resize(4, !0);
            s.flags_a.resize(8, false);
        });
        with_scratch(|s| {
            assert_eq!(s.pv.len(), 4);
            assert_eq!(s.flags_a.len(), 8);
        });
    }
}
