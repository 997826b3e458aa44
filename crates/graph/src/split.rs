//! The tensor-parallel split rule: how each task's work is laid out
//! across a tensor-parallel group of `T` devices.
//!
//! The layout is Megatron-LM's (Shoeybi et al.), derived the way Tofu
//! derives partition strategies: each operator has one, and
//! communication happens only where a tensor's partition changes. Model
//! builders tag each weight matmul of a layer as column- or row-split
//! ([`GraphBuilder::linear_column`](crate::GraphBuilder::linear_column),
//! [`GraphBuilder::linear_row`](crate::GraphBuilder::linear_row));
//! [`derive`] decides every other task, in topological order:
//!
//! * a tagged task takes its tag;
//! * an untagged dense `MatMul` is replicated: contracting over a split
//!   dimension needs a row split, which only a tag declares;
//! * any other task whose task-produced inputs all carry the same split
//!   (column or head) inherits it — bias, activation functions,
//!   transposes, the attention-score and context `bmm`s, scale, mask,
//!   softmax, dropout. Model inputs, parameters and constants are read
//!   whole by every shard and carry no split. A layout op that factors
//!   heads out of a column-split tensor (its output rank grows) makes a
//!   head split, and one that folds them back (its rank shrinks) makes a
//!   column split;
//! * everything else is replicated.
//!
//! A row-split matmul's output is a partial sum, all-reduced to full size
//! before any consumer reads it, so it carries no split downstream. That
//! all-reduce is a tensor-parallel stage's only collective: one per
//! row-split matmul per pass.
//!
//! A degree `T` is legal only if it divides every split dimension (the
//! last of a column-split output, the first of a head-split one: Tofu's
//! divisibility condition), so on a transformer it divides the heads.
//!
//! [`TaskGraph::index`](crate::TaskGraph::index) runs [`derive`] once per
//! graph; every reader (the profiler's time, memory and all-reduce
//! terms, the verifier's certified memory, communication program and
//! split-consistency check) reads [`GraphIndex::split`](crate::GraphIndex::split).

use crate::{OpKind, TaskGraph, TaskId};

/// How one task is laid out across a tensor-parallel group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpSplit {
    /// Every shard runs the whole task on full-size tensors.
    Replicated,
    /// Column-parallel: the output's feature (last) dimension is split,
    /// so each shard computes and holds `1/T` of it.
    Column,
    /// Head-parallel: the output's leading head dimension is split, so
    /// each shard computes and holds `1/T` of the heads.
    Head,
    /// Row-parallel matmul: each shard contracts its `1/T` slice of a
    /// split input with its row shard of the weight, and the full-size
    /// partial sums are all-reduced.
    Row,
}

impl TpSplit {
    /// The task's work divides `T` ways: every split but
    /// [`TpSplit::Replicated`].
    #[inline]
    pub fn is_split(self) -> bool {
        self != TpSplit::Replicated
    }

    /// The task's output is stored `1/T` per shard: column and head
    /// splits. A row split's all-reduced output is full-size.
    #[inline]
    pub fn shards_output(self) -> bool {
        matches!(self, TpSplit::Column | TpSplit::Head)
    }

    /// The split a consumer sees on this task's output: a row split's
    /// output is all-reduced to full size, so it is replicated.
    #[inline]
    pub fn carried(self) -> TpSplit {
        if self == TpSplit::Row {
            TpSplit::Replicated
        } else {
            self
        }
    }
}

/// Every task's split (see the module docs), indexed by task id, walking
/// `order`, a topological order of `g`. Tasks missing from `order` (on
/// or behind a cycle) are replicated.
pub(crate) fn derive(g: &TaskGraph, order: &[TaskId]) -> Vec<TpSplit> {
    let mut split = vec![TpSplit::Replicated; g.num_tasks()];
    for &t in order {
        let task = g.task(t);
        split[t.index()] = match task.tp_tag {
            Some(tag) => tag,
            None if task.op == OpKind::MatMul => TpSplit::Replicated,
            None => inherited(g, t, &split),
        };
    }
    split
}

/// The gcd of `g`'s split dimensions under `split` (module docs): `T` is
/// legal iff it divides it. `0` when nothing is split: every `T` is.
pub(crate) fn split_gcd(g: &TaskGraph, split: &[TpSplit]) -> usize {
    let mut acc = 0;
    for t in g.task_ids() {
        let dim = match split[t.index()] {
            TpSplit::Column => <[usize]>::last,
            TpSplit::Head => <[usize]>::first,
            TpSplit::Replicated | TpSplit::Row => continue,
        };
        for &v in &g.task(t).outputs {
            let mut d = dim(g.value(v).shape.dims()).map_or(0, |&d| d);
            while d != 0 {
                (acc, d) = (d, acc % d);
            }
        }
    }
    acc
}

/// The split an untagged, non-matmul task inherits from its
/// task-produced inputs.
fn inherited(g: &TaskGraph, t: TaskId, split: &[TpSplit]) -> TpSplit {
    let task = g.task(t);
    let mut carried = task
        .inputs
        .iter()
        .filter_map(|&v| g.value(v).producer)
        .map(|p| split[p.index()].carried());
    let Some(first) = carried.next() else {
        return TpSplit::Replicated;
    };
    if !first.shards_output() || carried.any(|s| s != first) {
        return TpSplit::Replicated;
    }
    if !task.op.is_layout_only() {
        return first;
    }
    let rank = |v: &[crate::ValueId]| v.first().map_or(0, |&v| g.value(v).shape.rank());
    let (rank_in, rank_out) = (rank(&task.inputs), rank(&task.outputs));
    match first {
        TpSplit::Column if rank_out > rank_in => TpSplit::Head,
        TpSplit::Head if rank_out < rank_in => TpSplit::Column,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder};

    /// One Megatron attention block: column q/k/v, head-split scores and
    /// context, row-split output projection.
    #[test]
    fn attention_block_follows_megatron() {
        let (seq, h, heads) = (8, 16, 4);
        let mut b = GraphBuilder::new("attn");
        let x = b.input("x", [seq, h], DType::F32);
        let mask = b.input("mask", [1, seq, seq], DType::F32);
        let q = b.linear_column("q", x, h, h);
        let k = b.linear_column("k", x, h, h);
        let qh = b.transpose(q, [heads, seq, h / heads]);
        let kh = b.transpose(k, [heads, h / heads, seq]);
        let scores = b.bmm(qh, kh);
        let scores = b.binary(OpKind::Add, scores, mask);
        let probs = b.softmax(scores);
        let ctx = b.bmm(probs, qh);
        let ctx = b.transpose(ctx, [seq, h]);
        let out = b.linear_row("out", ctx, h, h);
        let y = b.binary(OpKind::Add, out, x);
        b.output(y);
        let g = b.finish();
        let split = |v| g.index().split(g.value(v).producer.unwrap());
        assert_eq!(split(q), TpSplit::Column);
        assert_eq!(split(qh), TpSplit::Head);
        assert_eq!(split(scores), TpSplit::Head);
        assert_eq!(split(probs), TpSplit::Head);
        assert_eq!(split(ctx), TpSplit::Column);
        // `out` is the row-parallel bias add: it reads the all-reduced sum
        assert_eq!(split(out), TpSplit::Replicated);
        let row = g.value(out).producer.unwrap();
        let mm = g.task(row).inputs[0];
        assert_eq!(split(mm), TpSplit::Row);
        assert_eq!(split(y), TpSplit::Replicated);
        // the legal degrees divide both the 4 heads and the hidden 16
        assert!([1, 2, 4].into_iter().all(|t| g.index().allows_tp(t)));
        assert!(![3, 8].into_iter().any(|t| g.index().allows_tp(t)));
    }

    #[test]
    fn unsplit_graph_allows_every_degree() {
        let mut b = GraphBuilder::new("plain");
        let x = b.input("x", [4, 6], DType::F32);
        let r = b.linear("r", x, 6, 6);
        b.output(r);
        let g = b.finish();
        assert!((1..=16).all(|t| g.index().allows_tp(t)));
    }

    #[test]
    fn untagged_matmul_and_mixed_inputs_are_replicated() {
        let mut b = GraphBuilder::new("mixed");
        let x = b.input("x", [4, 8], DType::F32);
        let c = b.linear_column("c", x, 8, 8);
        let w = b.param("w", [8, 8]);
        let plain = b.matmul(c, w);
        let r = b.linear("r", x, 8, 8);
        let mixed = b.binary(OpKind::Add, c, r);
        b.output(plain);
        b.output(mixed);
        let g = b.finish();
        let split = |v| g.index().split(g.value(v).producer.unwrap());
        assert_eq!(split(c), TpSplit::Column);
        assert_eq!(split(plain), TpSplit::Replicated);
        assert_eq!(split(r), TpSplit::Replicated);
        assert_eq!(split(mixed), TpSplit::Replicated);
    }

    #[test]
    fn retagging_drops_the_index() {
        let mut b = GraphBuilder::new("retag");
        let x = b.input("x", [4, 8], DType::F32);
        let c = b.linear_column("c", x, 8, 8);
        b.output(c);
        let mut g = b.finish();
        let bias = g.value(c).producer.unwrap();
        let mm = g.value(g.task(bias).inputs[0]).producer.unwrap();
        assert_eq!(g.index().split(bias), TpSplit::Column);
        g.set_tp_tag(mm, None);
        assert_eq!(g.index().split(mm), TpSplit::Replicated);
        assert_eq!(g.index().split(bias), TpSplit::Replicated);
    }
}
