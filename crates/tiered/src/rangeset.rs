//! Sorted, coalescing byte-range sets.
//!
//! The copy-on-write pcache tracks *which bytes of a page were modified*:
//! "transactions store the exact memory accesses made, [so] only the bits of
//! the page that were modified during a transaction will be a part of the
//! writer MemoryTask operation. This reduces I/O amplification and improves
//! data correctness." [`RangeSet`] is that tracker, and the same type is the
//! DMSH's dirty index entry ([`Dmsh::dirty_ranges`](crate::Dmsh::dirty_ranges)):
//! the bytes of a resident blob its backend does not hold yet.

/// A set of disjoint, sorted, half-open `[start, end)` byte ranges that
/// coalesces on insert.
///
/// A one-range set — a fully dirty page, a single store — lives inline and
/// never allocates: the DMSH dirty index holds one per dirty blob, the
/// pcache one per cached page.
#[derive(Debug, Clone)]
pub struct RangeSet(Repr);

#[derive(Debug, Clone)]
enum Repr {
    One([(u64, u64); 1]),
    /// Empty, or grown past one range at some point.
    Many(Vec<(u64, u64)>),
}

impl Default for RangeSet {
    fn default() -> Self {
        Self(Repr::Many(Vec::new()))
    }
}

impl PartialEq for RangeSet {
    fn eq(&self, other: &Self) -> bool {
        self.ranges() == other.ranges()
    }
}

impl Eq for RangeSet {}

impl RangeSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges().is_empty()
    }

    /// Number of disjoint ranges.
    pub fn num_ranges(&self) -> usize {
        self.ranges().len()
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        self.iter().map(|(s, e)| e - s).sum()
    }

    /// The disjoint ranges, sorted.
    pub fn ranges(&self) -> &[(u64, u64)] {
        match &self.0 {
            Repr::One(one) => one,
            Repr::Many(many) => many,
        }
    }

    /// Insert `[start, end)`, merging with neighbours/overlaps.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let ranges = match &mut self.0 {
            Repr::Many(many) if many.is_empty() => {
                self.0 = Repr::One([(start, end)]);
                return;
            }
            Repr::Many(many) => many,
            Repr::One([(s, e)]) => {
                if start <= *e && *s <= end {
                    (*s, *e) = (start.min(*s), end.max(*e));
                } else {
                    let (old, new) = ((*s, *e), (start, end));
                    self.0 = Repr::Many(vec![old.min(new), old.max(new)]);
                }
                return;
            }
        };
        // Find insertion window: all ranges overlapping or touching
        // [start, end).
        let lo = ranges.partition_point(|&(_, e)| e < start);
        let hi = ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            ranges.insert(lo, (start, end));
            return;
        }
        let new_start = start.min(ranges[lo].0);
        let new_end = end.max(ranges[hi - 1].1);
        ranges.drain(lo..hi);
        ranges.insert(lo, (new_start, new_end));
    }

    /// Whether `pos` is covered.
    pub fn contains(&self, pos: u64) -> bool {
        let ranges = self.ranges();
        let i = ranges.partition_point(|&(_, e)| e <= pos);
        ranges.get(i).is_some_and(|&(s, _)| s <= pos)
    }

    /// Whether the whole `[start, end)` is covered by one range.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let ranges = self.ranges();
        let i = ranges.partition_point(|&(_, e)| e <= start);
        ranges.get(i).is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Iterate over `(start, end)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_coalesce_adjacent() {
        let mut r = RangeSet::new();
        r.insert(0, 4);
        r.insert(4, 8);
        assert_eq!(r.ranges(), &[(0, 8)]);
        assert_eq!(r.covered(), 8);
        assert_eq!(r.num_ranges(), 1);
    }

    #[test]
    fn inserts_keep_gaps() {
        let mut r = RangeSet::new();
        r.insert(0, 4);
        r.insert(8, 12);
        assert_eq!(r.ranges(), &[(0, 4), (8, 12)]);
        r.insert(4, 8);
        assert_eq!(r.ranges(), &[(0, 12)]);
    }

    #[test]
    fn overlapping_insert_merges_many() {
        let mut r = RangeSet::new();
        r.insert(0, 2);
        r.insert(4, 6);
        r.insert(8, 10);
        r.insert(1, 9);
        assert_eq!(r.ranges(), &[(0, 10)]);
    }

    #[test]
    fn contains_and_covers() {
        let mut r = RangeSet::new();
        r.insert(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(9));
        assert!(r.covers(12, 18));
        assert!(!r.covers(5, 15));
        assert!(r.covers(7, 7), "empty range trivially covered");
    }

    #[test]
    fn empty_insert_ignored() {
        let mut r = RangeSet::new();
        r.insert(5, 5);
        r.insert(9, 3);
        assert!(r.is_empty());
    }

    #[test]
    fn inline_and_spilled_sets_compare_by_content() {
        // Two disjoint ranges spill to the heap; filling the gap leaves a
        // one-range heap set equal to the inline one.
        let mut spilled = RangeSet::new();
        spilled.insert(4, 6);
        spilled.insert(0, 2);
        assert_eq!(spilled.ranges(), &[(0, 2), (4, 6)]);
        spilled.insert(2, 4);
        let mut inline = RangeSet::new();
        inline.insert(0, 6);
        assert_eq!(spilled, inline);
        assert!(inline.covers(1, 5) && spilled.contains(5));
        spilled.clear();
        assert_eq!(spilled, RangeSet::new());
        spilled.insert(7, 9);
        assert_eq!(spilled.ranges(), &[(7, 9)]);
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut r = RangeSet::new();
        r.insert(100, 110);
        r.insert(0, 5);
        r.insert(50, 60);
        assert_eq!(r.ranges(), &[(0, 5), (50, 60), (100, 110)]);
        r.clear();
        assert!(r.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the insertion order, a RangeSet covers exactly the union
        /// of inserted ranges, with sorted disjoint internal structure.
        #[test]
        fn matches_naive_bitset(ops in proptest::collection::vec((0u64..200, 0u64..64), 0..40)) {
            let mut rs = RangeSet::new();
            let mut bits = vec![false; 300];
            for (start, len) in ops {
                rs.insert(start, start + len);
                for b in start..(start + len) {
                    bits[b as usize] = true;
                }
            }
            // Coverage agreement point by point.
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(rs.contains(i as u64), b, "position {}", i);
            }
            // Covered byte count agreement.
            prop_assert_eq!(rs.covered(), bits.iter().filter(|&&b| b).count() as u64);
            // Internal invariants: sorted, disjoint, non-touching.
            for w in rs.ranges().windows(2) {
                prop_assert!(w[0].1 < w[1].0);
            }
            for &(s, e) in rs.ranges() {
                prop_assert!(s < e);
            }
        }
    }
}
