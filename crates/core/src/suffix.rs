//! The dynamic suffix minima problem (§3.1).
//!
//! An array `A` of `n` values in `ℕ ∪ {∞}` is maintained under point
//! updates, and two kinds of queries must be answered:
//!
//! * `min(A, i)` — the minimum value in the suffix `A[i:]`;
//! * `argleq(A, a)` — the largest index `i` with `A[i] ≤ a`.
//!
//! Dynamic reachability on a chain DAG with `k = 2` chains reduces to
//! this problem: store in `A[j1]` the earliest neighbour of `⟨t1, j1⟩`
//! in chain `t2` and the invariant Eq. (1) makes `successor`,
//! `predecessor` and `reachable` single suffix-minima queries.
//!
//! Implementations in this crate: [`SparseSegmentTree`] (the paper's
//! §3.2 structure), [`SegmentTree`](crate::SegmentTree) (the dense
//! baseline of \[Pavlogiannis 2019\]) and [`NaiveSuffixArray`] (an
//! `O(n)`-per-query reference oracle used by the test suite).
//!
//! [`SparseSegmentTree`]: crate::SparseSegmentTree

use crate::index::{Pos, INF};

/// Common interface of dynamic suffix-minima structures.
///
/// All indices are `usize` positions in `[0, len)`; values are [`Pos`]
/// with [`INF`] denoting an empty entry. `Send` is required so the
/// indexes built over these arrays satisfy the
/// [`PartialOrderIndex`](crate::PartialOrderIndex) Send bound (service
/// session threads own their index).
pub trait SuffixMinima: Send {
    /// Creates a structure representing an array of `len` entries, all
    /// initially empty (`∞`).
    fn with_len(len: usize) -> Self
    where
        Self: Sized;

    /// Logical length of the represented array.
    fn len(&self) -> usize;

    /// Grows the represented array to at least `len` entries (new
    /// entries are empty, `∞`). No-op if the array is already long
    /// enough. Callers that grow incrementally should double, so dense
    /// implementations stay amortized `O(1)` per added entry; sparse
    /// implementations grow for free.
    fn ensure_len(&mut self, len: usize);

    /// `true` if the represented array has length zero.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets `A[i] = v`. Passing [`INF`] erases the entry.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    fn update(&mut self, i: usize, v: Pos);

    /// Returns `min(A[i:])`, or [`INF`] if the suffix is empty. Querying
    /// at `i >= len` returns [`INF`].
    fn suffix_min(&self, i: usize) -> Pos;

    /// Returns the largest index `i` with `A[i] ≤ v`, or `None` if no
    /// entry qualifies. Empty (`∞`) entries never qualify, even when
    /// `v == INF`.
    fn argleq(&self, v: Pos) -> Option<usize>;

    /// Number of non-empty entries (the array's *density*, §3.2).
    fn density(&self) -> usize;

    /// Largest density reached over the structure's lifetime (the `q`
    /// columns of the paper's tables report peak densities).
    fn peak_density(&self) -> usize {
        self.density()
    }

    /// Short name of the structure, used to label benchmark rows
    /// ("SSTs" for sparse segment trees, "STs" for dense ones).
    fn structure_name() -> &'static str
    where
        Self: Sized,
    {
        "SSTs"
    }

    /// Approximate heap footprint in bytes, for the paper's memory
    /// comparisons.
    fn memory_bytes(&self) -> usize;
}

/// Reference implementation: a plain `Vec<Pos>` answering queries by
/// linear scans.
///
/// Used as the correctness oracle in unit and property tests; `O(n)`
/// per query, so not fit for measurement.
///
/// ```
/// use csst_core::{NaiveSuffixArray, SuffixMinima, INF};
/// let mut a = NaiveSuffixArray::with_len(4);
/// a.update(1, 9);
/// a.update(2, 8);
/// assert_eq!(a.suffix_min(0), 8);
/// assert_eq!(a.suffix_min(3), INF);
/// assert_eq!(a.argleq(8), Some(2));
/// assert_eq!(a.argleq(7), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveSuffixArray {
    values: Vec<Pos>,
    density: usize,
    peak_density: usize,
}

impl SuffixMinima for NaiveSuffixArray {
    fn with_len(len: usize) -> Self {
        NaiveSuffixArray {
            values: vec![INF; len],
            density: 0,
            peak_density: 0,
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn ensure_len(&mut self, len: usize) {
        if len > self.values.len() {
            self.values.resize(len, INF);
        }
    }

    fn update(&mut self, i: usize, v: Pos) {
        let old = self.values[i];
        if old == INF && v != INF {
            self.density += 1;
            self.peak_density = self.peak_density.max(self.density);
        } else if old != INF && v == INF {
            self.density -= 1;
        }
        self.values[i] = v;
    }

    fn suffix_min(&self, i: usize) -> Pos {
        self.values
            .get(i.min(self.values.len())..)
            .map(|s| s.iter().copied().min().unwrap_or(INF))
            .unwrap_or(INF)
    }

    fn argleq(&self, v: Pos) -> Option<usize> {
        self.values.iter().rposition(|&x| x != INF && x <= v)
    }

    fn density(&self) -> usize {
        self.density
    }

    fn peak_density(&self) -> usize {
        self.peak_density
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.values.capacity() * std::mem::size_of::<Pos>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_array() {
        let a = NaiveSuffixArray::with_len(0);
        assert!(a.is_empty());
        assert_eq!(a.suffix_min(0), INF);
        assert_eq!(a.argleq(INF), None);
    }

    #[test]
    fn example_1_from_paper() {
        // A = [6, 9, 8, 10] (Example 1).
        let mut a = NaiveSuffixArray::with_len(4);
        for (i, v) in [6, 9, 8, 10].into_iter().enumerate() {
            a.update(i, v);
        }
        assert_eq!(a.suffix_min(0), 6);
        assert_eq!(a.suffix_min(1), 8);
        assert_eq!(a.suffix_min(2), 8);
        assert_eq!(a.suffix_min(3), 10);
        assert_eq!(a.argleq(7), Some(0));
        assert_eq!(a.argleq(9), Some(2));
        assert_eq!(a.argleq(11), Some(3));
        // update(A, 3, 7) sets A[3] = 7.
        a.update(3, 7);
        assert_eq!(a.suffix_min(2), 7);
        assert_eq!(a.argleq(7), Some(3));
    }

    #[test]
    fn density_tracks_inf_transitions() {
        let mut a = NaiveSuffixArray::with_len(3);
        assert_eq!(a.density(), 0);
        a.update(0, 5);
        a.update(0, 6); // overwrite, still one entry
        assert_eq!(a.density(), 1);
        a.update(1, 2);
        assert_eq!(a.density(), 2);
        a.update(0, INF);
        assert_eq!(a.density(), 1);
        a.update(0, INF); // erasing empty entry is a no-op
        assert_eq!(a.density(), 1);
    }

    #[test]
    fn ensure_len_grows_with_empty_entries() {
        let mut a = NaiveSuffixArray::with_len(2);
        a.update(1, 3);
        a.ensure_len(5);
        assert_eq!(a.len(), 5);
        assert_eq!(a.suffix_min(0), 3);
        assert_eq!(a.suffix_min(2), INF);
        assert_eq!(a.density(), 1);
        a.ensure_len(3); // shrinking is a no-op
        assert_eq!(a.len(), 5);
        a.update(4, 1);
        assert_eq!(a.suffix_min(2), 1);
    }

    #[test]
    fn suffix_min_past_end() {
        let mut a = NaiveSuffixArray::with_len(2);
        a.update(1, 3);
        assert_eq!(a.suffix_min(2), INF);
        assert_eq!(a.suffix_min(100), INF);
    }
}
