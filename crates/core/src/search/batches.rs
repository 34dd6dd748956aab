//! RS-batches: grouping root subtrees into work units (Figure 5).
//!
//! The query-answering algorithm "splits the tree into root subtree (RS)
//! batches, i.e., sets of consecutive root subtrees". Batches are the
//! claiming granularity of the traversal phase *and* the unit of
//! inter-node work-stealing, so their formation must be deterministic:
//! two replication-group nodes with the same data derive the same batches
//! and can therefore exchange batch *ids* instead of data.
//!
//! Batches are balanced by contained series count (not subtree count),
//! because root-subtree sizes are heavily skewed on real data.

use std::sync::OnceLock;

/// The RS-batch partition of a forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsBatches {
    /// `ranges[b]` is the half-open root-subtree index range of batch `b`.
    pub ranges: Vec<std::ops::Range<usize>>,
}

impl RsBatches {
    /// Splits `subtree_sizes.len()` consecutive subtrees into at most
    /// `nsb` batches with roughly equal total series counts.
    ///
    /// Every batch is non-empty; when there are fewer subtrees than
    /// requested batches, one batch per subtree is produced. The paper's
    /// experiments set `nsb` = number of worker threads.
    pub fn build(subtree_sizes: &[usize], nsb: usize) -> Self {
        let n = subtree_sizes.len();
        if n == 0 {
            return RsBatches { ranges: Vec::new() };
        }
        let nsb = nsb.max(1).min(n);
        let total: usize = subtree_sizes.iter().sum();
        let mut ranges = Vec::with_capacity(nsb);
        let mut start = 0usize;
        let mut consumed = 0usize;
        for b in 0..nsb {
            let remaining_batches = nsb - b;
            let remaining_subtrees = n - start;
            // Leave at least one subtree per remaining batch.
            let max_end = n - (remaining_batches - 1);
            let target = (total - consumed) / remaining_batches;
            let mut end = start + 1;
            let mut batch_sum = subtree_sizes[start];
            while end < max_end && batch_sum + subtree_sizes[end] / 2 < target {
                batch_sum += subtree_sizes[end];
                end += 1;
            }
            // Also never take more than our fair share of subtrees when
            // sizes are all zero (degenerate case).
            let _ = remaining_subtrees;
            consumed += batch_sum;
            ranges.push(start..end);
            start = end;
        }
        // Any leftover subtrees (rounding) join the final batch.
        if start < n {
            let last = ranges.last_mut().expect("nsb >= 1");
            last.end = n;
        }
        RsBatches { ranges }
    }

    /// Number of batches.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether there are no batches (empty forest).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The subtree range of batch `b`.
    #[inline]
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.ranges[b].clone()
    }
}

/// RS-batch partitions memoized per requested batch count: an
/// append-only list whose entries are each set once, so a lookup is a
/// chain of atomic loads and never takes a lock.
#[derive(Debug, Default)]
pub(crate) struct RsBatchMemo {
    entry: OnceLock<(usize, RsBatches)>,
    next: OnceLock<Box<RsBatchMemo>>,
}

impl RsBatchMemo {
    /// The partition into at most `nsb` batches, built by `build` the
    /// first time `nsb` is asked for.
    pub(crate) fn get(&self, nsb: usize, build: impl Fn() -> RsBatches) -> &RsBatches {
        let mut memo = self;
        loop {
            let (n, batches) = memo.entry.get_or_init(|| (nsb, build()));
            if *n == nsb {
                return batches;
            }
            memo = memo.next.get_or_init(Box::default);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flatten(b: &RsBatches) -> Vec<usize> {
        b.ranges.iter().flat_map(|r| r.clone()).collect()
    }

    #[test]
    fn batches_cover_all_subtrees_exactly_once() {
        for n in [1usize, 2, 5, 17, 100] {
            for nsb in [1usize, 2, 4, 8, 200] {
                let sizes: Vec<usize> = (0..n).map(|i| (i * 31) % 57 + 1).collect();
                let b = RsBatches::build(&sizes, nsb);
                assert_eq!(flatten(&b), (0..n).collect::<Vec<_>>(), "n={n} nsb={nsb}");
                assert!(b.len() <= nsb.max(1));
                assert!(b.ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn empty_forest_yields_no_batches() {
        let b = RsBatches::build(&[], 4);
        assert!(b.is_empty());
    }

    #[test]
    fn batches_roughly_balance_series() {
        // 64 subtrees of uniform size split into 8 batches: perfect split.
        let sizes = vec![10usize; 64];
        let b = RsBatches::build(&sizes, 8);
        assert_eq!(b.len(), 8);
        for r in &b.ranges {
            assert_eq!(r.len(), 8);
        }
    }

    #[test]
    fn skewed_sizes_split_sanely() {
        // One huge subtree followed by many tiny ones.
        let mut sizes = vec![1000usize];
        sizes.extend(std::iter::repeat_n(10, 30));
        let b = RsBatches::build(&sizes, 4);
        assert_eq!(flatten(&b), (0..31).collect::<Vec<_>>());
        // The huge subtree gets (roughly) its own batch.
        assert!(b.ranges[0].len() <= 2);
    }

    #[test]
    fn deterministic() {
        let sizes: Vec<usize> = (0..40).map(|i| (i * 7) % 23 + 1).collect();
        assert_eq!(RsBatches::build(&sizes, 6), RsBatches::build(&sizes, 6));
    }

    #[test]
    fn more_batches_than_subtrees_clamps() {
        let b = RsBatches::build(&[5, 5], 10);
        assert_eq!(b.len(), 2);
    }
}
