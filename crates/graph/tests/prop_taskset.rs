//! Model test of `TaskSet` against a `BTreeSet<u32>`.
//!
//! Random op sequences run on a pool of sets and, in parallel, on ordered
//! sets of ids. After every op, every query must agree with the model, the
//! window must be trimmed, and sets with equal members must be `==` and
//! hash equal however they were built. Ids cluster in a few far-apart
//! bands (words 0–1, 2, 10), so removes and differences often hit members,
//! empty a set or trim both ends of its window, descending inserts prepend
//! to it, and unions join windows nine words apart.

use proptest::prelude::*;
use rannc_graph::{TaskId, TaskSet};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const UNIVERSE: usize = 700;
const SLOTS: usize = 4;

/// One step on the pool: `(kind, slot a, slot b, id, id2)`.
type Op = (u8, usize, usize, u32, u32);

fn id() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..8, 58u32..70, 128u32..134, 640u32..650, 690u32..700]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..10, 0usize..SLOTS, 0usize..SLOTS, id(), id()), 1..80)
}

fn hash_of(s: &TaskSet) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn set_of(ids: impl IntoIterator<Item = u32>) -> TaskSet {
    TaskSet::from_ids(UNIVERSE, ids.into_iter().map(TaskId))
}

/// Apply one op to the pool and the model alike.
fn apply(sets: &mut [TaskSet], model: &mut [BTreeSet<u32>], (kind, a, b, x, y): Op) {
    let (lo, hi) = (x.min(y), x.max(y));
    match kind {
        0 => {
            sets[a].insert(TaskId(x));
            model[a].insert(x);
        }
        // descending inserts: each one below the window prepends to it
        1 => {
            for t in (lo..=hi).rev() {
                sets[a].insert(TaskId(t));
                model[a].insert(t);
            }
        }
        2 => {
            sets[a].remove(TaskId(x));
            model[a].remove(&x);
        }
        3 => {
            let other = sets[b].clone();
            sets[a].union_with(&other);
            let other = model[b].clone();
            model[a].extend(other);
        }
        4 => {
            sets[a] = sets[a].union(&sets[b]);
            model[a] = model[a].union(&model[b]).copied().collect();
        }
        // `a == b` empties the set
        5 => {
            let other = sets[b].clone();
            sets[a].difference_with(&other);
            let other = model[b].clone();
            model[a].retain(|t| !other.contains(t));
        }
        // a difference that cuts away both ends of the window
        6 => {
            let mut ends: Vec<u32> = model[a].iter().copied().filter(|&t| t < lo).collect();
            ends.extend(model[a].iter().copied().filter(|&t| t > hi));
            sets[a].difference_with(&set_of(ends.iter().copied()));
            model[a].retain(|t| !ends.contains(t));
        }
        7 => {
            sets[a] = TaskSet::singleton(UNIVERSE, TaskId(x));
            model[a] = BTreeSet::from([x]);
        }
        8 => {
            sets[a] = TaskSet::new(UNIVERSE);
            model[a].clear();
        }
        _ => {
            sets[a] = sets[b].clone();
            model[a] = model[b].clone();
        }
    }
}

/// Every query of `s` agrees with `m`, and the window is trimmed.
fn check_one(s: &TaskSet, m: &BTreeSet<u32>) -> Result<(), String> {
    prop_assert_eq!(s.universe(), UNIVERSE);
    prop_assert_eq!(s.len(), m.len());
    prop_assert_eq!(s.is_empty(), m.is_empty());
    prop_assert_eq!(s.first(), m.first().map(|&t| TaskId(t)));
    let members: Vec<u32> = s.iter().map(|t| t.0).collect();
    prop_assert_eq!(&members, &m.iter().copied().collect::<Vec<_>>());
    for t in 0..UNIVERSE as u32 {
        prop_assert_eq!(s.contains(TaskId(t)), m.contains(&t), "contains({})", t);
    }
    prop_assert!(!s.contains(TaskId(UNIVERSE as u32)));

    let words: Vec<(usize, u64)> = s.indexed_words().collect();
    prop_assert_eq!(words.len(), s.indexed_words().len());
    if let (Some(&(first, fw)), Some(&(last, lw))) = (words.first(), words.last()) {
        prop_assert!(fw != 0 && lw != 0, "untrimmed window {:?}", words);
        prop_assert_eq!(last + 1 - first, words.len(), "indices not consecutive");
        prop_assert_eq!(first, (*m.first().unwrap() / 64) as usize);
        prop_assert_eq!(last, (*m.last().unwrap() / 64) as usize);
    }
    for (wi, w) in words {
        for bit in 0..64 {
            let t = (wi * 64 + bit) as u32;
            prop_assert_eq!((w >> bit) & 1 == 1, m.contains(&t));
        }
    }

    // however it was built, the set equals and hashes like the ascending
    // and descending rebuilds of its members
    for rebuilt in [set_of(m.iter().copied()), set_of(m.iter().rev().copied())] {
        prop_assert_eq!(s, &rebuilt);
        prop_assert_eq!(hash_of(s), hash_of(&rebuilt));
    }
    let collected: TaskSet = m.iter().map(|&t| TaskId(t)).collect();
    prop_assert_eq!(
        collected.universe(),
        m.last().map_or(0, |&t| t as usize + 1)
    );
    prop_assert_eq!(
        collected.iter().collect::<Vec<_>>(),
        s.iter().collect::<Vec<_>>()
    );
    Ok(())
}

/// The pairwise queries agree with the model for every pair of slots.
fn check_pairs(sets: &[TaskSet], model: &[BTreeSet<u32>]) -> Result<(), String> {
    for a in 0..SLOTS {
        for b in 0..SLOTS {
            let (s, t) = (&sets[a], &sets[b]);
            let (m, n) = (&model[a], &model[b]);
            prop_assert_eq!(s.intersects(t), !m.is_disjoint(n), "intersects {} {}", a, b);
            prop_assert_eq!(s.is_subset(t), m.is_subset(n), "is_subset {} {}", a, b);
            prop_assert_eq!(s == t, m == n, "eq {} {}", a, b);
            if m == n {
                prop_assert_eq!(hash_of(s), hash_of(t));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn taskset_matches_btreeset_model(ops in ops()) {
        let mut sets: Vec<TaskSet> = (0..SLOTS).map(|_| TaskSet::new(UNIVERSE)).collect();
        let mut model: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); SLOTS];
        for op in ops {
            apply(&mut sets, &mut model, op);
            for (s, m) in sets.iter().zip(&model) {
                check_one(s, m)?;
            }
            check_pairs(&sets, &model)?;
        }
    }
}

#[test]
fn unions_of_far_apart_windows_hold_the_gap_as_zero_words() {
    let low = set_of([1, 63]);
    let high = set_of([690]);
    let joined = low.union(&high);
    let mut grown = high.clone();
    grown.union_with(&low);
    assert_eq!(joined, grown);
    let words: Vec<(usize, u64)> = joined.indexed_words().collect();
    assert_eq!(words.len(), 11);
    assert_eq!(words[0], (0, 1 << 1 | 1 << 63));
    assert_eq!(words[10], (10, 1 << (690 - 640)));
    assert!(words[1..10].iter().all(|&(_, w)| w == 0));
    // removing the far end trims the window back to one word
    grown.remove(TaskId(690));
    assert_eq!(grown, low);
    assert_eq!(grown.indexed_words().len(), 1);
}
