//! The boundary split of a list of parts, and the prefix walk over it.
//!
//! Call a value *interior* to part `b` when its producer (if any) is held
//! by `b` alone, every consumer is held by `b` alone, and it is not a
//! model output. Such a value adds the same amount to every prefix union
//! that contains `b`, and nothing to any other: no egress, no ingress
//! through a producer (a value with no producer counts its bytes once),
//! and its parameter elements exactly once. A task `b` alone holds adds
//! its intermediate, sharded and all-reduced output bytes the same way. So one pass
//! over every part fixes each part's share of those terms, and a prefix
//! walk reads only the rest: the *boundary rows*, the value rows of a
//! part's tasks whose value is not interior to it, with every row of a
//! task several parts hold.

use super::{ProfiledSet, Profiler, SetStats};
use rannc_graph::costs::NO_PRODUCER;
use rannc_graph::{TaskGraph, TaskId, TaskSet, ValueId, ValueKind};
use std::borrow::Cow;
use std::ops::Range;

/// Held by no part (a task); not yet seen or read (a value).
const NOBODY: u32 = u32::MAX;
/// Held by several parts (a task), or touched by tasks of several parts,
/// or of none (a value).
const SEVERAL: u32 = u32::MAX - 1;
/// A model output: never interior.
const OUTPUT: u32 = u32::MAX - 2;

/// One value that is interior to no part, as the prefix walk reads it.
#[derive(Debug, Clone, Copy)]
struct CrossValue {
    /// Consumer slots a prefix must hold for the value to stay inside it;
    /// `u32::MAX` for a model output, which always leaves.
    need: u32,
    /// FP32 bytes of one sample.
    bytes: usize,
    /// Parameter elements; 0 unless the value is a parameter.
    param_elems: usize,
    /// A parameter or constant: read for its elements, never ingress.
    is_static: bool,
    /// Producing task, or [`NO_PRODUCER`].
    producer: u32,
}

/// One boundary row: a task's input slot or output of a cross value.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Index into [`BoundarySplit::values`].
    value: u32,
    /// The task produces the value (otherwise it reads it).
    out: bool,
}

/// One task of a part with at least one boundary row, or held by several
/// parts.
#[derive(Debug, Clone)]
struct WalkedTask {
    task: TaskId,
    /// Held by several parts: a prefix counts it once, at its first part.
    cloned: bool,
    /// Output statistics the walk adds (intermediate, sharded and
    /// all-reduced bytes): the task's own when cloned, zero otherwise
    /// (they are in its part's fixed statistics).
    outputs: SetStats,
    /// Its rows in [`BoundarySplit::rows`].
    rows: Range<u32>,
}

/// A list of parts split into what each part adds to every prefix union
/// that holds it (its fixed statistics) and the rows a prefix walk must
/// read (its boundary rows). Built once by [`Profiler::boundary_split`];
/// [`BoundarySplit::prefixes`] then fills every prefix union of the
/// parts from any first part at the cost of its boundary rows.
#[derive(Debug)]
pub struct BoundarySplit {
    parts: Vec<TaskSet>,
    /// Per part: the statistics its interior values and its own tasks add.
    fixed: Vec<SetStats>,
    tasks: Vec<WalkedTask>,
    /// Per part, its tasks in `tasks`: `part_tasks[i]..part_tasks[i + 1]`.
    part_tasks: Vec<u32>,
    rows: Vec<Row>,
    values: Vec<CrossValue>,
}

/// One prefix union of a [`BoundarySplit`] walk.
#[derive(Debug)]
pub struct Prefix {
    /// The union, with its statistics.
    pub set: ProfiledSet<'static>,
    /// FP32 bytes of one sample's values leaving the union.
    pub egress: usize,
    /// Tasks the union's parts hold more than once, once per extra copy.
    pub repeated: Vec<TaskId>,
}

/// A cross value's state within one prefix walk.
#[derive(Debug, Clone, Copy)]
struct ValueState {
    /// The first part of the walk that read the value, or [`NOBODY`].
    read: u32,
    /// Consumer slots read so far.
    consumed: u32,
    /// Its producer has joined.
    produced: bool,
}

impl Profiler<'_> {
    /// Split `parts` (in any order, possibly overlapping, not necessarily
    /// covering the graph) at their boundary: one pass over every task's
    /// value rows finds the values interior to each part, and one pass
    /// over each part's members fixes what it adds to any union holding
    /// it and lists its boundary rows.
    pub fn boundary_split(&self, parts: Vec<TaskSet>) -> BoundarySplit {
        let g = self.g;
        assert!(parts.len() < OUTPUT as usize, "more parts than owner ids");
        // per task: the one part that holds it, NOBODY or SEVERAL
        let mut owner = vec![NOBODY; g.num_tasks()];
        for (i, part) in parts.iter().enumerate() {
            for t in part.iter() {
                let o = &mut owner[t.index()];
                *o = if *o == NOBODY { i as u32 } else { SEVERAL };
            }
        }
        // per value: the one part holding every task that touches it, or
        // SEVERAL (a task of several parts or of none counts as SEVERAL)
        let mut home = vec![NOBODY; g.num_values()];
        for (t, task) in g.tasks() {
            let o = owner[t.index()].min(SEVERAL);
            for v in task.inputs.iter().chain(&task.outputs) {
                let h = &mut home[v.index()];
                *h = if *h == NOBODY || *h == o { o } else { SEVERAL };
            }
        }
        for &v in g.outputs() {
            home[v.index()] = OUTPUT;
        }

        let mut split = BoundarySplit {
            fixed: Vec::with_capacity(parts.len()),
            tasks: Vec::new(),
            part_tasks: Vec::with_capacity(parts.len() + 1),
            rows: Vec::new(),
            values: Vec::new(),
            parts: Vec::new(),
        };
        split.part_tasks.push(0);
        // per value: its index in `split.values`, or NOBODY
        let mut cross = vec![NOBODY; g.num_values()];
        // per interior value: already in its part's fixed statistics
        let mut counted = vec![false; g.num_values()];
        for (i, part) in parts.iter().enumerate() {
            let i = i as u32;
            let mut fixed = SetStats::default();
            for t in part.iter() {
                let c = self.rows.task(t);
                let cloned = owner[t.index()] != i;
                let outputs = if c.scales {
                    SetStats::of_outputs(c.out_act_bytes, c.split)
                } else {
                    SetStats::default()
                };
                if !cloned {
                    fixed.add(&outputs);
                }
                let start = split.rows.len() as u32;
                // a value interior to part i has every row in tasks i alone
                // holds, so a cloned task's rows are all boundary rows
                for row in self.rows.outputs(c) {
                    if home[row.value as usize] != i {
                        split.push_row(&mut cross, g, &home, row.value, true);
                    }
                }
                for row in self.rows.static_inputs(c) {
                    let v = row.value as usize;
                    if home[v] != i {
                        split.push_row(&mut cross, g, &home, row.value, false);
                    } else if !std::mem::replace(&mut counted[v], true) {
                        fixed.param_elems += row.param_elems;
                    }
                }
                for row in self.rows.act_inputs(c) {
                    let v = row.value as usize;
                    if home[v] != i {
                        split.push_row(&mut cross, g, &home, row.value, false);
                    } else if !std::mem::replace(&mut counted[v], true)
                        && row.producer == NO_PRODUCER
                    {
                        fixed.ingress_bytes += row.bytes;
                    }
                }
                let rows = start..split.rows.len() as u32;
                if cloned || !rows.is_empty() {
                    split.tasks.push(WalkedTask {
                        task: t,
                        cloned,
                        outputs: if cloned { outputs } else { SetStats::default() },
                        rows,
                    });
                }
            }
            split.fixed.push(fixed);
            split.part_tasks.push(split.tasks.len() as u32);
        }
        split.parts = parts;
        split
    }
}

impl BoundarySplit {
    /// Append a row of graph value `v`, first listing `v` as a cross value.
    fn push_row(&mut self, cross: &mut [u32], g: &TaskGraph, home: &[u32], v: u32, out: bool) {
        let slot = &mut cross[v as usize];
        if *slot == NOBODY {
            *slot = self.values.len() as u32;
            let val = g.value(ValueId(v));
            self.values.push(CrossValue {
                need: if home[v as usize] == OUTPUT {
                    u32::MAX
                } else {
                    val.consumers.len() as u32
                },
                bytes: val.size_bytes(),
                param_elems: if val.kind == ValueKind::Param {
                    val.numel()
                } else {
                    0
                },
                is_static: val.kind.is_static(),
                producer: val.producer.map_or(NO_PRODUCER, |p| p.0),
            });
        }
        self.rows.push(Row { value: *slot, out });
    }

    /// The parts, in the order given.
    pub fn parts(&self) -> &[TaskSet] {
        &self.parts
    }

    /// Boundary rows over all parts: the value rows every prefix walk
    /// reads of the parts it covers.
    pub fn boundary_rows(&self) -> usize {
        self.rows.len()
    }

    /// Every prefix union `parts[from] ∪ … ∪ parts[to − 1]`, `to` rising
    /// from `from + 1`, each with its statistics, egress and repeated
    /// tasks. Each part adds its fixed statistics, and the walk reads
    /// only its boundary rows: deduplicating values, turning ingress
    /// internal when its producer joins, skipping a task an earlier part
    /// holds, and counting consumer slots for the egress. Exact: equal,
    /// field for field, to walking every member of every union.
    pub fn prefixes(&self, from: usize) -> Vec<Prefix> {
        let mut state = vec![
            ValueState {
                read: NOBODY,
                consumed: 0,
                produced: false,
            };
            self.values.len()
        ];
        let mut stats = SetStats::default();
        let mut egress = 0usize;
        let mut repeated = Vec::new();
        let mut prefixes: Vec<Prefix> = Vec::with_capacity(self.parts.len().saturating_sub(from));
        for (i, part) in self.parts.iter().enumerate().skip(from) {
            let prev = prefixes.last().map(|p| p.set.tasks());
            // one exact-size allocation per union
            let union = prev.map_or_else(|| part.clone(), |prev| prev.union(part));
            let held = prev.filter(|prev| prev.intersects(part));
            stats.add(&self.fixed[i]);
            let tasks = self.part_tasks[i] as usize..self.part_tasks[i + 1] as usize;
            for task in &self.tasks[tasks] {
                if task.cloned && held.is_some_and(|held| held.contains(task.task)) {
                    repeated.push(task.task); // an earlier part holds it
                    continue;
                }
                stats.add(&task.outputs);
                for row in &self.rows[task.rows.start as usize..task.rows.end as usize] {
                    let v = &self.values[row.value as usize];
                    let s = &mut state[row.value as usize];
                    if row.out {
                        s.produced = true;
                        if s.consumed < v.need {
                            egress += v.bytes;
                        }
                        if s.read < i as u32 {
                            // an earlier part read it as ingress
                            stats.ingress_bytes -= v.bytes;
                        }
                    } else {
                        s.consumed += 1;
                        if s.produced && s.consumed == v.need {
                            egress -= v.bytes; // its last consumer joined
                        }
                        if s.read == NOBODY {
                            s.read = i as u32;
                            if v.is_static {
                                stats.param_elems += v.param_elems;
                            } else if !union.contains(TaskId(v.producer)) {
                                stats.ingress_bytes += v.bytes;
                            }
                        }
                    }
                }
            }
            prefixes.push(Prefix {
                set: ProfiledSet {
                    set: Cow::Owned(union),
                    stats,
                },
                egress,
                repeated: repeated.clone(),
            });
        }
        prefixes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfilerOptions;
    use rannc_hw::DeviceSpec;
    use rannc_models::{bert_graph, gpt_graph, t5_graph, BertConfig, GptConfig, T5Config};

    /// Per part, per task the walk reads: `(task, output rows, input
    /// rows)`, counted from the definition: the parts holding each task
    /// are counted afresh, and a value is interior to part `b` when it is
    /// no model output and its producer and every consumer are held by
    /// `b` alone. A task two parts hold contributes every row.
    fn definition_rows(g: &TaskGraph, parts: &[TaskSet]) -> Vec<Vec<(TaskId, usize, usize)>> {
        let holders = |t: TaskId| parts.iter().filter(|p| p.contains(t)).count();
        let alone = |t: TaskId, b: &TaskSet| b.contains(t) && holders(t) == 1;
        let interior = |v: ValueId, b: &TaskSet| {
            let val = g.value(v);
            !g.outputs().contains(&v)
                && val.producer.is_none_or(|p| alone(p, b))
                && val.consumers.iter().all(|&c| alone(c, b))
        };
        parts
            .iter()
            .map(|b| {
                b.iter()
                    .filter_map(|t| {
                        let task = g.task(t);
                        let cloned = holders(t) > 1;
                        let count = |vs: &[ValueId]| {
                            vs.iter().filter(|&&v| cloned || !interior(v, b)).count()
                        };
                        let (outs, ins) = (count(&task.outputs), count(&task.inputs));
                        (cloned || outs + ins > 0).then_some((t, outs, ins))
                    })
                    .collect()
            })
            .collect()
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn a_row_walk_visits_exactly_the_boundary_rows() {
        // contiguous parts (few boundary values) and interleaved ones,
        // with tasks left out of every part and tasks in two parts
        let graphs = [
            bert_graph(&BertConfig::tiny()),
            gpt_graph(&GptConfig::tiny()),
            t5_graph(&T5Config::tiny()),
        ];
        let mut rng = 0xb0_u64;
        for g in &graphs {
            let n = g.num_tasks();
            let p = Profiler::new(g, DeviceSpec::v100_32gb(), ProfilerOptions::fp32());
            for k in 1..6usize {
                for chunked in [true, false] {
                    let mut members = vec![Vec::new(); k];
                    for t in g.task_ids() {
                        rng = splitmix(rng);
                        if (rng >> 20).is_multiple_of(7) {
                            continue; // in no part
                        }
                        let bin = if chunked {
                            t.index() * k / n
                        } else {
                            rng as usize % k
                        };
                        members[bin].push(t);
                        if (rng >> 32).is_multiple_of(6) {
                            members[(rng >> 40) as usize % k].push(t);
                        }
                    }
                    let parts: Vec<TaskSet> = members
                        .into_iter()
                        .map(|m| TaskSet::from_ids(n, m))
                        .collect();
                    let want = definition_rows(g, &parts);
                    let split = p.boundary_split(parts);
                    for (b, want) in want.iter().enumerate() {
                        let tasks = split.part_tasks[b] as usize..split.part_tasks[b + 1] as usize;
                        let got: Vec<(TaskId, usize, usize)> = split.tasks[tasks]
                            .iter()
                            .map(|task| {
                                let rows =
                                    &split.rows[task.rows.start as usize..task.rows.end as usize];
                                let outs = rows.iter().filter(|r| r.out).count();
                                (task.task, outs, rows.len() - outs)
                            })
                            .collect();
                        assert_eq!(&got, want, "{} k {k} part {b}", g.name);
                    }
                    let total: usize = want.iter().flatten().map(|&(_, o, i)| o + i).sum();
                    assert_eq!(split.boundary_rows(), total);
                    if chunked && k > 1 {
                        // most values stay inside one part
                        assert!(split.values.len() < g.num_values() / 2, "{}", g.name);
                    }
                }
            }
        }
    }
}
