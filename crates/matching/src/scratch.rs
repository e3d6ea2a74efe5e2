//! Epoch-stamped mark table of the candidate generator.
//!
//! A hash-set replacement for dedup/membership over dense position ranges:
//! instead of clearing a table per query, each query takes a fresh epoch and
//! a position counts as "present" only when its mark equals the current
//! epoch.  Owned by [`crate::CandidateScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochMarks {
    epoch: u32,
    marks: Vec<u32>,
}

impl EpochMarks {
    /// Grows the table to cover `len` positions (never shrinks).
    pub(crate) fn ensure_capacity(&mut self, len: usize) {
        if self.marks.len() < len {
            self.marks.resize(len, 0);
        }
    }

    /// A fresh epoch no mark currently carries.  On (unlikely) wrap-around
    /// the table is reset so stale epochs cannot collide.
    pub(crate) fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Stamps a position with an epoch.
    pub(crate) fn mark(&mut self, position: usize, epoch: u32) {
        self.marks[position] = epoch;
    }

    /// `true` if the position carries the given epoch.
    pub(crate) fn is_marked(&self, position: usize, epoch: u32) -> bool {
        self.marks[position] == epoch
    }

    /// Stamps a position and reports whether this was its first visit in the
    /// given epoch.
    pub(crate) fn mark_first(&mut self, position: usize, epoch: u32) -> bool {
        if self.marks[position] != epoch {
            self.marks[position] = epoch;
            true
        } else {
            false
        }
    }
}
