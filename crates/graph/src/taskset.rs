//! Compact sets of task ids.
//!
//! Partitioning manipulates thousands of subcomponents, each a set of task
//! ids, with frequent unions, membership tests and iteration. A set is a
//! `u64` bitset trimmed to its *window*: the words from the first to the
//! last non-zero word, plus the absolute index of the first. Every
//! operation therefore costs O(window), not O(universe) — coarsening's
//! candidate unions average a word or two against the 117 words of a
//! 7,446-task graph — with no per-element allocation, following the
//! perf-book guidance on index-based data structures.

use crate::TaskId;

/// A bitset of [`TaskId`]s over a fixed universe, stored as its window.
///
/// All sets participating in one partitioning run share the same universe
/// size (the task count of the graph); binary operations assert it.
///
/// Invariant: the window is always trimmed — `words` is empty or starts
/// and ends with a non-zero word, and the empty set has `offset` 0 — so
/// equal members mean equal fields, and the derived `Eq` and `Hash` are
/// membership equality and a membership hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskSet {
    /// Absolute word index of `words[0]`: bit `b` of `words[j]` is task
    /// `(offset + j) * 64 + b`.
    offset: usize,
    /// The window, first and last word non-zero.
    words: Vec<u64>,
    /// Number of bits in the universe.
    universe: usize,
}

impl TaskSet {
    /// An empty set over a universe of `universe` task ids. Allocates
    /// nothing, whatever the universe.
    pub fn new(universe: usize) -> Self {
        TaskSet {
            offset: 0,
            words: Vec::new(),
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

    /// The window's words with their absolute word indices: bit `i % 64`
    /// of the word at index `i / 64` is task `i`. Words outside the window
    /// are zero. Interior words may be zero too; the first and last are
    /// not, so two sets over one universe have equal members exactly when
    /// they yield equal pairs.
    #[inline]
    pub fn indexed_words(&self) -> impl ExactSizeIterator<Item = (usize, u64)> + '_ {
        let offset = self.offset;
        self.words
            .iter()
            .enumerate()
            .map(move |(j, &w)| (offset + j, w))
    }

    /// One past the last window word's absolute index.
    #[inline]
    fn end(&self) -> usize {
        self.offset + self.words.len()
    }

    /// Widen the window to also cover absolute words `lo..hi` (`lo < hi`),
    /// in one fresh zeroed allocation of the joint window: a wide, sparse
    /// window comes from the allocator's zero pages, so only the words
    /// written are touched. Growth happens only when a new word enters the
    /// window. The caller must set a bit in each new end word to restore
    /// the trimmed invariant.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.words.is_empty() {
            self.offset = lo;
            self.words = vec![0; hi - lo];
            return;
        }
        let lo = lo.min(self.offset);
        let mut words = vec![0; hi.max(self.end()) - lo];
        words[self.offset - lo..][..self.words.len()].copy_from_slice(&self.words);
        self.words = words;
        self.offset = lo;
    }

    /// Drop zero words from both ends of the window (and reset the offset
    /// of an emptied set), restoring the trimmed invariant.
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        let lead = self.words.iter().take_while(|&&w| w == 0).count();
        if lead > 0 {
            self.words.drain(..lead);
            self.offset += lead;
        }
        if self.words.is_empty() {
            self.offset = 0;
        }
    }

    /// Panic unless both sets share one universe: sets sized for
    /// different graphs must never be combined, in release builds too.
    #[inline]
    fn check_universe(&self, other: &TaskSet) {
        assert_eq!(
            self.universe, other.universe,
            "TaskSet universe mismatch: set algebra across graphs of different size \
             silently corrupts membership"
        );
    }

    /// The overlap of two windows as `(self slice, other slice)`, empty
    /// when the windows are disjoint.
    #[inline]
    fn overlap<'a>(&'a self, other: &'a TaskSet) -> (&'a [u64], &'a [u64]) {
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        if lo >= hi {
            return (&[], &[]);
        }
        (
            &self.words[lo - self.offset..hi - self.offset],
            &other.words[lo - other.offset..hi - other.offset],
        )
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
        let wi = i / 64;
        // an empty set's window ends at 0, so it always widens
        if wi < self.offset || wi >= self.end() {
            self.widen(wi, wi + 1);
        }
        self.words[wi - self.offset] |= 1u64 << (i % 64);
    }

    /// Remove an id.
    #[inline]
    pub fn remove(&mut self, id: TaskId) {
        let i = id.index();
        if let Some(w) = self.words.get_mut((i / 64).wrapping_sub(self.offset)) {
            *w &= !(1u64 << (i % 64));
            if *w == 0 {
                self.trim();
            }
        }
    }

    /// Membership test. Ids at or above the universe are never members:
    /// no window word holds their bits set.
    #[inline]
    pub fn contains(&self, id: TaskId) -> bool {
        let i = id.index();
        self.words
            .get((i / 64).wrapping_sub(self.offset))
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &TaskSet) {
        self.check_universe(other);
        if other.words.is_empty() {
            return;
        }
        if other.offset < self.offset || other.end() > self.end() {
            self.widen(other.offset, other.end());
        }
        let at = other.offset - self.offset;
        for (a, b) in self.words[at..].iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// New set: union of the two operands, built in one allocation of
    /// the joint window.
    pub fn union(&self, other: &TaskSet) -> TaskSet {
        self.check_universe(other);
        if other.words.is_empty() {
            return self.clone();
        }
        if self.words.is_empty() {
            return other.clone();
        }
        let lo = self.offset.min(other.offset);
        let mut words = vec![0u64; self.end().max(other.end()) - lo];
        for s in [self, other] {
            for (a, b) in words[s.offset - lo..].iter_mut().zip(&s.words) {
                *a |= b;
            }
        }
        TaskSet {
            offset: lo,
            words,
            universe: self.universe,
        }
    }

    /// In-place difference (`self -= other`).
    pub fn difference_with(&mut self, other: &TaskSet) {
        self.check_universe(other);
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        if lo >= hi {
            return;
        }
        let (at, bt) = (lo - self.offset, lo - other.offset);
        for (a, b) in self.words[at..hi - self.offset]
            .iter_mut()
            .zip(&other.words[bt..])
        {
            *a &= !b;
        }
        self.trim();
    }

    /// Whether the two sets share any id.
    pub fn intersects(&self, other: &TaskSet) -> bool {
        self.check_universe(other);
        let (a, b) = self.overlap(other);
        a.iter().zip(b).any(|(a, b)| a & b != 0)
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &TaskSet) -> bool {
        self.check_universe(other);
        if self.words.is_empty() {
            return true;
        }
        // self's end words are non-zero, so its window must lie inside
        // other's
        if self.offset < other.offset || self.end() > other.end() {
            return false;
        }
        let (a, b) = self.overlap(other);
        a.iter().zip(b).all(|(a, b)| a & !b == 0)
    }

    /// Iterate members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.indexed_words().flat_map(|(wi, w)| {
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

    /// The smallest member, if any: the lowest bit of the first window
    /// word, which is non-zero.
    pub fn first(&self) -> Option<TaskId> {
        self.words
            .first()
            .map(|w| TaskId((self.offset * 64 + w.trailing_zeros() as usize) as u32))
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

/// Which sets of a family hold each task, flat: the labels of the sets
/// holding `t` are [`Membership::of`]`(t)`, in the family's order. Sets
/// may share tasks (constant-task clones). O(universe + members) to build.
///
/// Merges ([`Membership::contract`]) and moves ([`Membership::relabel`])
/// edit the labels in place: each task keeps every label once, but no
/// longer in any order.
pub struct Membership {
    /// `t`'s labels are `member[start[t]..start[t] + len[t]]`.
    start: Vec<u32>,
    len: Vec<u32>,
    member: Vec<u32>,
}

impl Membership {
    /// Index a family of `(label, set)` pairs over a universe of `n`
    /// tasks; every set's universe must be at most `n`.
    pub fn new<'s>(n: usize, sets: impl Iterator<Item = (u32, &'s TaskSet)> + Clone) -> Self {
        let mut len = vec![0u32; n];
        for (_, set) in sets.clone() {
            for t in set.iter() {
                len[t.index()] += 1;
            }
        }
        let mut start = Vec::with_capacity(n);
        let mut total = 0u32;
        for &l in &len {
            start.push(total);
            total += l;
        }
        let mut fill = start.clone();
        let mut member = vec![0u32; total as usize];
        for (label, set) in sets {
            for t in set.iter() {
                member[fill[t.index()] as usize] = label;
                fill[t.index()] += 1;
            }
        }
        Membership { start, len, member }
    }

    /// Labels of the sets holding `t`.
    #[inline]
    pub fn of(&self, t: TaskId) -> &[u32] {
        let i = self.start[t.index()] as usize;
        &self.member[i..i + self.len[t.index()] as usize]
    }

    /// Set `i` became set `into[i]` (several may become one): relabel
    /// every task, keeping each label once.
    pub fn contract(&mut self, into: &[u32]) {
        for t in 0..self.len.len() {
            let i = self.start[t] as usize;
            let held = &mut self.member[i..i + self.len[t] as usize];
            for label in held.iter_mut() {
                *label = into[*label as usize];
            }
            if held.len() > 1 {
                held.sort_unstable();
                let mut kept = 1;
                for j in 1..held.len() {
                    if held[j] != held[kept - 1] {
                        held[kept] = held[j];
                        kept += 1;
                    }
                }
                self.len[t] = kept as u32;
            }
        }
    }

    /// Task `t` left set `from` for set `to`. Panics if `from` does not
    /// hold `t`.
    pub fn relabel(&mut self, t: TaskId, from: u32, to: u32) {
        let i = self.start[t.index()] as usize;
        let held = &mut self.member[i..i + self.len[t.index()] as usize];
        let at = held
            .iter()
            .position(|&l| l == from)
            .expect("relabel: `from` does not hold the task");
        if held.contains(&to) {
            held.swap(at, held.len() - 1);
            self.len[t.index()] -= 1;
        } else {
            held[at] = to;
        }
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
        let words = |s: &TaskSet| s.indexed_words().collect::<Vec<_>>();
        assert_eq!(words(&direct), words(&unioned));
        assert_eq!(words(&direct), words(&differenced));
        assert_eq!(words(&direct), [(0, 1 << 1), (1, 1), (2, 1 << 1)]);
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

    #[test]
    fn membership_follows_moves_and_merges() {
        let set = |v: &[u32]| TaskSet::from_ids(4, ids(v));
        let family = [set(&[0, 1]), set(&[1, 2]), set(&[3])];
        let labelled = || family.iter().enumerate().map(|(i, s)| (i as u32, s));
        let mut held = Membership::new(4, labelled());
        assert_eq!(held.of(TaskId(1)), &[0, 1]);
        // task 2 moves from set 1 to set 2; task 1 moves from set 0 to
        // set 1, which already holds it, so it keeps one label
        held.relabel(TaskId(2), 1, 2);
        assert_eq!(held.of(TaskId(2)), &[2]);
        held.relabel(TaskId(1), 0, 1);
        assert_eq!(held.of(TaskId(1)), &[1]);
        // sets 0 and 1 merge into set 0 and set 2 becomes set 1: task 1,
        // held by both operands, keeps one label
        let mut held = Membership::new(4, labelled());
        held.contract(&[0, 0, 1]);
        let labels: Vec<&[u32]> = (0..4).map(|t| held.of(TaskId(t))).collect();
        assert_eq!(labels, [&[0][..], &[0], &[0], &[1]]);
    }
}
