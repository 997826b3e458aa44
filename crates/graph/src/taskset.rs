//! Compact sets of task ids.
//!
//! Partitioning manipulates thousands of subcomponents, each a set of task
//! ids, with frequent unions, membership tests and iteration. A `u64`
//! bitset keeps those O(n/64) with no per-element allocation, following the
//! perf-book guidance on index-based data structures.

use crate::TaskId;

/// A fixed-universe bitset of [`TaskId`]s.
///
/// All sets participating in one partitioning run share the same universe
/// size (the task count of the graph), so binary operations simply zip the
/// backing words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskSet {
    words: Vec<u64>,
    /// Number of bits in the universe.
    universe: usize,
}

impl TaskSet {
    /// An empty set over a universe of `universe` task ids.
    pub fn new(universe: usize) -> Self {
        TaskSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// A singleton set.
    pub fn singleton(universe: usize, id: TaskId) -> Self {
        let mut s = TaskSet::new(universe);
        s.insert(id);
        s
    }

    /// Build from an iterator of ids.
    pub fn from_ids(universe: usize, ids: impl IntoIterator<Item = TaskId>) -> Self {
        let mut s = TaskSet::new(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Universe size this set was created for.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The backing bitset words: bit `i % 64` of word `i / 64` is task `i`.
    ///
    /// Invariant: bits at or above [`TaskSet::universe`] are always zero
    /// (`insert` rejects out-of-universe ids and every set operation
    /// combines equal-universe operands), so two sets over one universe
    /// have equal members exactly when they have equal words. Hashing
    /// the words is therefore a valid membership key.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Insert an id. Panics if out of universe (programming error).
    #[inline]
    pub fn insert(&mut self, id: TaskId) {
        let i = id.index();
        assert!(
            i < self.universe,
            "task id {i} outside universe {}",
            self.universe
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Remove an id.
    #[inline]
    pub fn remove(&mut self, id: TaskId) {
        let i = id.index();
        if i < self.universe {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: TaskId) -> bool {
        let i = id.index();
        i < self.universe && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &TaskSet) {
        assert_eq!(
            self.universe, other.universe,
            "TaskSet universe mismatch: set algebra across graphs of different size \
             silently corrupts membership"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// New set: union of the two operands.
    pub fn union(&self, other: &TaskSet) -> TaskSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// In-place difference (`self -= other`).
    pub fn difference_with(&mut self, other: &TaskSet) {
        assert_eq!(
            self.universe, other.universe,
            "TaskSet universe mismatch: set algebra across graphs of different size \
             silently corrupts membership"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether the two sets share any id.
    pub fn intersects(&self, other: &TaskSet) -> bool {
        assert_eq!(
            self.universe, other.universe,
            "TaskSet universe mismatch: set algebra across graphs of different size \
             silently corrupts membership"
        );
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &TaskSet) -> bool {
        assert_eq!(
            self.universe, other.universe,
            "TaskSet universe mismatch: set algebra across graphs of different size \
             silently corrupts membership"
        );
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(TaskId((wi * 64 + bit) as u32))
                }
            })
        })
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<TaskId> {
        self.iter().next()
    }
}

impl FromIterator<TaskId> for TaskSet {
    /// Builds a set whose universe is just large enough for the maximum id.
    /// Prefer [`TaskSet::from_ids`] when the graph's task count is known.
    fn from_iter<T: IntoIterator<Item = TaskId>>(iter: T) -> Self {
        let ids: Vec<TaskId> = iter.into_iter().collect();
        let universe = ids.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        TaskSet::from_ids(universe, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<TaskId> {
        v.iter().copied().map(TaskId).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = TaskSet::new(200);
        s.insert(TaskId(0));
        s.insert(TaskId(63));
        s.insert(TaskId(64));
        s.insert(TaskId(199));
        assert!(s.contains(TaskId(0)));
        assert!(s.contains(TaskId(63)));
        assert!(s.contains(TaskId(64)));
        assert!(s.contains(TaskId(199)));
        assert!(!s.contains(TaskId(1)));
        assert_eq!(s.len(), 4);
        s.remove(TaskId(63));
        assert!(!s.contains(TaskId(63)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_difference() {
        let a = TaskSet::from_ids(100, ids(&[1, 2, 3]));
        let b = TaskSet::from_ids(100, ids(&[3, 4]));
        let u = a.union(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), ids(&[1, 2, 3, 4]));
        let mut d = u.clone();
        d.difference_with(&a);
        assert_eq!(d.iter().collect::<Vec<_>>(), ids(&[4]));
    }

    #[test]
    fn equal_members_have_equal_words() {
        let direct = TaskSet::from_ids(130, ids(&[1, 64, 129]));
        let unioned =
            TaskSet::from_ids(130, ids(&[1, 64])).union(&TaskSet::from_ids(130, ids(&[129])));
        let mut differenced = TaskSet::from_ids(130, ids(&[1, 2, 64, 128, 129]));
        differenced.difference_with(&TaskSet::from_ids(130, ids(&[2, 128])));
        assert_eq!(direct.words(), unioned.words());
        assert_eq!(direct.words(), differenced.words());
        assert_eq!(direct.words().len(), 3);
    }

    #[test]
    fn intersects_subset() {
        let a = TaskSet::from_ids(100, ids(&[1, 2]));
        let b = TaskSet::from_ids(100, ids(&[2, 3]));
        let c = TaskSet::from_ids(100, ids(&[4]));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.is_subset(&a.union(&b)));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn iter_order_and_first() {
        let s = TaskSet::from_ids(300, ids(&[250, 3, 70]));
        assert_eq!(s.iter().collect::<Vec<_>>(), ids(&[3, 70, 250]));
        assert_eq!(s.first(), Some(TaskId(3)));
        assert_eq!(TaskSet::new(10).first(), None);
    }

    #[test]
    fn empty_set() {
        let s = TaskSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_universe_insert_panics() {
        let mut s = TaskSet::new(10);
        s.insert(TaskId(10));
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: TaskSet = ids(&[5, 9]).into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics_in_release_too() {
        // assert_eq!, not debug_assert_eq!: sets sized for different
        // graphs must never be combined — word-wise ops would silently
        // truncate or corrupt membership in release builds.
        let mut a = TaskSet::new(64);
        let b = TaskSet::new(65);
        a.union_with(&b);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics_on_queries() {
        let a = TaskSet::new(10);
        let b = TaskSet::new(20);
        let _ = a.is_subset(&b);
    }
}
