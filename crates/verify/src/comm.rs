//! The per-rank communication program and its static race checks
//! (RV060–RV064).
//!
//! A partition plan plus a schedule fully determines the communication
//! every rank performs in one iteration: stage-boundary activation
//! sends/recvs (one per crossing value per micro-batch), the mirror
//! gradient transfers on the backward pass, on a tensor-parallel stage
//! one all-reduce of its row-split matmul outputs per micro-batch and
//! pass, and one data-parallel gradient all-reduce per replicated
//! stage. [`CommProgram::derive`]
//! materialises that program from the plan, the placement
//! (`assignment[pipeline_replica][stage] = global ranks`, the
//! contiguous convention of
//! [`ClusterSpec::slot_devices`](rannc_hw::ClusterSpec::slot_devices)) and the
//! stage's *actual* [`ScheduleModel`]
//! issue order; [`verify_comm`] then checks it the way an MPI
//! verifier would:
//!
//! * **RV060** — members of one collective group issue a different
//!   number of operations, or two ranks issue two groups in opposite
//!   orders (a classic NCCL hang);
//! * **RV061** — a send with no matching receive or vice versa
//!   (matched as multisets over `(src rank, dst rank, tag)`);
//! * **RV062** — the matched program has a dependency cycle: every op
//!   waits on another, so all ranks block forever. Sends are modelled
//!   as buffered (eager) — a send never blocks on its receiver — so a
//!   reported cycle is a deadlock under *any* runtime, not an artifact
//!   of rendezvous semantics; the diagnostic names the ops on the
//!   cycle.
//!
//! [`verify_transfers`] adds the liveness-informed hygiene pass:
//! **RV063** (a transferred value is dead at the consumer stage — the
//! bytes move for nothing) and **RV064** (the same value is delivered
//! to the same device more than once for one micro-batch phase).

use std::collections::{BTreeMap, HashMap};

use crate::diag::{Code, Diagnostic, Location, Report};
use crate::plan_checks::{PlanView, StageView};
use crate::schedule_checks::{PhaseKind, ScheduleModel};
use rannc_graph::{TaskGraph, TaskSet, TpSplit, ValueId};

/// Identity of one point-to-point message: which stage boundary it
/// crosses, which micro-batch, and which half of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgTag {
    /// Stage issuing the payload.
    pub src_stage: usize,
    /// Stage consuming the payload.
    pub dst_stage: usize,
    /// Micro-batch index.
    pub micro: usize,
    /// Forward activation or backward gradient.
    pub kind: PhaseKind,
}

impl MsgTag {
    fn key(&self) -> (usize, usize, usize, u8) {
        (self.src_stage, self.dst_stage, self.micro, self.kind as u8)
    }
}

impl std::fmt::Display for MsgTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            PhaseKind::Forward => "fwd",
            PhaseKind::Backward => "bwd",
        };
        write!(
            f,
            "{kind} mb{} s{}->s{}",
            self.micro, self.src_stage, self.dst_stage
        )
    }
}

/// One operation of a rank's communication program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommOp {
    /// Point-to-point send (buffered: completes without the receiver).
    Send {
        /// Destination global rank.
        to: usize,
        /// Message identity.
        tag: MsgTag,
        /// Per-sample payload bytes.
        bytes: usize,
        /// Value ids carried (gradients carry their forward value's id).
        values: Vec<u32>,
    },
    /// Point-to-point receive (blocks until the matching send).
    Recv {
        /// Source global rank.
        from: usize,
        /// Message identity.
        tag: MsgTag,
        /// Per-sample payload bytes.
        bytes: usize,
        /// Value ids carried.
        values: Vec<u32>,
    },
    /// Collective over a [`CollectiveGroup`] (blocks until every
    /// member reaches its matching occurrence).
    AllReduce {
        /// Index into [`CommProgram::groups`].
        group: usize,
        /// FP32 payload bytes: a data-parallel group's gradient shard, or
        /// one micro-batch's row-split matmul outputs on a
        /// tensor-parallel group.
        bytes: usize,
    },
}

/// A set of ranks that issue collectives together (a DP gradient group
/// or a tensor-parallel activation group).
#[derive(Debug, Clone)]
pub struct CollectiveGroup {
    /// Member global ranks, ascending.
    pub members: Vec<usize>,
    /// Human-readable name used in diagnostics (e.g. `dp-stage2`).
    pub label: String,
    /// `Some(stage)` for a tensor-parallel activation group of that
    /// stage — what the RV071 membership check keys on. `None` for
    /// data-parallel gradient groups.
    pub tp_stage: Option<usize>,
}

/// The complete statically-derived communication program of a plan.
#[derive(Debug, Clone, Default)]
pub struct CommProgram {
    /// `programs[rank]` is that rank's issue order (empty if unused).
    pub programs: Vec<Vec<CommOp>>,
    /// Collective groups referenced by [`CommOp::AllReduce`].
    pub groups: Vec<CollectiveGroup>,
    /// Pipeline stage each rank hosts (None for unused ranks).
    pub stage_of_rank: Vec<Option<usize>>,
}

impl CommProgram {
    /// Derive the per-rank program from a plan, its placement and the
    /// schedule's per-stage issue order.
    ///
    /// Micro-batch `m` of pipeline replica `r` runs on stage `s`'s
    /// replica slot `m % R_s`, so the sender/receiver of each boundary
    /// transfer is fully determined. Per schedule entry, receives are
    /// issued before sends (sorted by peer stage) — the order the
    /// pipeline executor posts them. After the schedule each replicated
    /// stage contributes one gradient all-reduce over its DP group.
    pub fn derive(
        g: &TaskGraph,
        plan: &PlanView<'_>,
        schedule: &ScheduleModel,
        assignment: &[Vec<Vec<usize>>],
    ) -> CommProgram {
        let stages = plan.stages.len();
        // task -> stage
        let mut stage_of_task: Vec<Option<usize>> = vec![None; g.num_tasks()];
        for (si, s) in plan.stages.iter().enumerate() {
            if s.set.universe() != g.num_tasks() {
                continue; // malformed stage: RV021 territory, nothing to derive
            }
            for t in s.set.iter() {
                stage_of_task[t.index()] = Some(si);
            }
        }
        // boundary transfers: (src stage, dst stage) -> crossing values
        let mut pairs: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
        for vid in 0..g.num_values() as u32 {
            let val = g.value(ValueId(vid));
            if val.kind.is_static() {
                continue;
            }
            let Some(p) = val.producer else { continue };
            let Some(i) = stage_of_task[p.index()] else {
                continue;
            };
            for &c in &val.consumers {
                if let Some(j) = stage_of_task[c.index()] {
                    if j != i {
                        let vs = pairs.entry((i, j)).or_default();
                        if !vs.contains(&vid) {
                            vs.push(vid);
                        }
                    }
                }
            }
        }
        let bytes_of =
            |vs: &[u32]| -> usize { vs.iter().map(|&v| g.value(ValueId(v)).size_bytes()).sum() };

        let max_rank = assignment
            .iter()
            .flatten()
            .flatten()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut programs: Vec<Vec<CommOp>> = vec![Vec::new(); max_rank];
        let mut stage_of_rank: Vec<Option<usize>> = vec![None; max_rank];
        for replica in assignment {
            for (s, ranks) in replica.iter().enumerate() {
                for &rk in ranks {
                    stage_of_rank[rk] = Some(s);
                }
            }
        }

        let mut groups: Vec<CollectiveGroup> = Vec::new();
        let mut tp_group_ids: HashMap<(usize, usize, usize), usize> = HashMap::new();
        for (ri, replica) in assignment.iter().enumerate() {
            // DP replica `j` of a tensor-parallel stage is the tp-wide
            // contiguous rank group [j·tp, (j+1)·tp); its first rank is
            // the leader carrying the stage-boundary traffic. At tp = 1
            // this is exactly the historical one-rank-per-replica walk.
            let tp_of = |stage: usize| -> usize { plan.stages[stage].tensor_parallel.max(1) };
            let slot = |stage: usize, micro: usize| -> usize {
                let ranks = &replica[stage];
                let tp = tp_of(stage);
                let n_dp = (ranks.len() / tp).max(1);
                ranks[(micro % n_dp) * tp]
            };
            for (s, orders) in schedule.orders.iter().enumerate().take(stages) {
                let incoming: Vec<(&(usize, usize), &Vec<u32>)> =
                    pairs.iter().filter(|((_, j), _)| *j == s).collect();
                let outgoing: Vec<(&(usize, usize), &Vec<u32>)> =
                    pairs.iter().filter(|((i, _), _)| *i == s).collect();
                let tp = tp_of(s);
                let act_bytes = if tp > 1 {
                    tp_allreduce_payload(g, &plan.stages[s])
                } else {
                    0
                };
                for &(phase, m) in orders {
                    let me = slot(s, m);
                    match phase {
                        PhaseKind::Forward => {
                            // recv activations from upstream, then send on
                            for (&(i, _), vs) in &incoming {
                                let tag = MsgTag {
                                    src_stage: i,
                                    dst_stage: s,
                                    micro: m,
                                    kind: PhaseKind::Forward,
                                };
                                programs[me].push(CommOp::Recv {
                                    from: slot(i, m),
                                    tag,
                                    bytes: bytes_of(vs),
                                    values: (*vs).clone(),
                                });
                            }
                            if tp > 1 {
                                // the split ranks reduce the partial sums
                                // of their row-split matmuls
                                tp_allreduce(
                                    &mut programs,
                                    &mut groups,
                                    &mut tp_group_ids,
                                    &replica[s],
                                    (ri, s, m, tp),
                                    act_bytes,
                                );
                            }
                            for (&(_, j), vs) in &outgoing {
                                let tag = MsgTag {
                                    src_stage: s,
                                    dst_stage: j,
                                    micro: m,
                                    kind: PhaseKind::Forward,
                                };
                                programs[me].push(CommOp::Send {
                                    to: slot(j, m),
                                    tag,
                                    bytes: bytes_of(vs),
                                    values: (*vs).clone(),
                                });
                            }
                        }
                        PhaseKind::Backward => {
                            // recv gradients of what we sent forward,
                            // then send gradients of what we received
                            for (&(_, j), vs) in &outgoing {
                                let tag = MsgTag {
                                    src_stage: j,
                                    dst_stage: s,
                                    micro: m,
                                    kind: PhaseKind::Backward,
                                };
                                programs[me].push(CommOp::Recv {
                                    from: slot(j, m),
                                    tag,
                                    bytes: bytes_of(vs),
                                    values: (*vs).clone(),
                                });
                            }
                            if tp > 1 {
                                // mirror of the forward: reduce the input
                                // gradients of the column-split matmuls
                                tp_allreduce(
                                    &mut programs,
                                    &mut groups,
                                    &mut tp_group_ids,
                                    &replica[s],
                                    (ri, s, m, tp),
                                    act_bytes,
                                );
                            }
                            for (&(i, _), vs) in &incoming {
                                let tag = MsgTag {
                                    src_stage: s,
                                    dst_stage: i,
                                    micro: m,
                                    kind: PhaseKind::Backward,
                                };
                                programs[me].push(CommOp::Send {
                                    to: slot(i, m),
                                    tag,
                                    bytes: bytes_of(vs),
                                    values: (*vs).clone(),
                                });
                            }
                        }
                    }
                }
            }
        }

        // gradient all-reduce per replicated stage, after the schedule.
        // each tensor shard all-reduces its own gradient slice with the
        // matching shard of every other data-parallel replica, so the
        // group stays DP-wide and the payload shrinks 1/T. At tp = 1
        // this is the historical one-group-per-stage program.
        for (s, stage) in plan.stages.iter().enumerate() {
            let tp = stage.tensor_parallel.max(1);
            for shard in 0..tp {
                let mut members: Vec<usize> = assignment
                    .iter()
                    .filter_map(|rep| rep.get(s))
                    .flat_map(|ranks| {
                        ranks
                            .chunks(tp)
                            .filter_map(move |grp| grp.get(shard))
                            .copied()
                    })
                    .collect();
                members.sort_unstable();
                members.dedup();
                if members.len() < 2 {
                    continue;
                }
                let group = groups.len();
                let bytes = stage.param_elems * 4 / tp;
                for &rk in &members {
                    programs[rk].push(CommOp::AllReduce { group, bytes });
                }
                groups.push(CollectiveGroup {
                    members,
                    label: if tp > 1 {
                        format!("dp-stage{s}-shard{shard}")
                    } else {
                        format!("dp-stage{s}")
                    },
                    tp_stage: None,
                });
            }
        }

        CommProgram {
            programs,
            groups,
            stage_of_rank,
        }
    }
}

/// FP32 bytes of one micro-batch's tensor-parallel all-reduce on
/// `stage`, per pass: the outputs of its row-split matmuls (the graph's
/// split rule, [`rannc_graph::split`]) for `micro_batch` samples — the
/// volume the search prices through `Profiler::tp_allreduce_bytes`.
/// Zero for a stage whose set does not fit the graph (RV021).
fn tp_allreduce_payload(g: &TaskGraph, stage: &StageView<'_>) -> usize {
    if stage.set.universe() != g.num_tasks() {
        return 0;
    }
    let (index, non_constant) = (g.index(), g.index().non_constant());
    let per_sample: usize = stage
        .set
        .iter()
        .filter(|&t| non_constant[t.index()] && index.split(t) == TpSplit::Row)
        .flat_map(|t| &g.task(t).outputs)
        .map(|&v| g.value(v).size_bytes())
        .sum();
    per_sample * stage.micro_batch
}

/// Push one tensor-parallel activation all-reduce over the tp-wide
/// group of DP replica `m % n_dp` of stage `s` (pipeline replica `ri`),
/// registering the group on first use. `key = (ri, s, m, tp)`.
fn tp_allreduce(
    programs: &mut [Vec<CommOp>],
    groups: &mut Vec<CollectiveGroup>,
    ids: &mut HashMap<(usize, usize, usize), usize>,
    ranks: &[usize],
    key: (usize, usize, usize, usize),
    bytes: usize,
) {
    let (ri, s, m, tp) = key;
    let n_dp = (ranks.len() / tp).max(1);
    let j = m % n_dp;
    let members = &ranks[j * tp..((j + 1) * tp).min(ranks.len())];
    let gid = *ids.entry((ri, s, j)).or_insert_with(|| {
        groups.push(CollectiveGroup {
            members: members.to_vec(),
            label: format!("tp-stage{s}-r{ri}-dp{j}"),
            tp_stage: Some(s),
        });
        groups.len() - 1
    });
    for &rk in members {
        programs[rk].push(CommOp::AllReduce { group: gid, bytes });
    }
}

fn describe(rank: usize, op: &CommOp, groups: &[CollectiveGroup]) -> String {
    match op {
        CommOp::Send { to, tag, .. } => format!("d{rank}: send {tag} to d{to}"),
        CommOp::Recv { from, tag, .. } => format!("d{rank}: recv {tag} from d{from}"),
        CommOp::AllReduce { group, .. } => {
            let label = groups.get(*group).map(|g| g.label.as_str()).unwrap_or("?");
            format!("d{rank}: allreduce {label}")
        }
    }
}

/// Statically check a communication program for collective-order
/// mismatches (RV060), unpaired point-to-point traffic (RV061) and
/// dependency cycles (RV062).
pub fn verify_comm(p: &CommProgram) -> Report {
    let mut r = Report::new();
    check_collective_orders(p, &mut r);
    check_pairing(p, &mut r);
    check_deadlock(p, &mut r);
    r
}

/// RV071: tensor-parallel collective membership. Every TP activation
/// group must follow the slot convention — exactly `tensor_parallel`
/// contiguous global ranks, all hosting the group's stage, and each of
/// them actually issuing the group's collectives. A wrong group here
/// silently reduces over unrelated shards (numeric corruption, not a
/// hang), so the race checks alone cannot catch it.
pub fn verify_tp_groups(p: &CommProgram, plan: &PlanView<'_>) -> Report {
    let mut r = Report::new();
    for (gi, group) in p.groups.iter().enumerate() {
        let Some(s) = group.tp_stage else { continue };
        let tp = plan
            .stages
            .get(s)
            .map(|st| st.tensor_parallel.max(1))
            .unwrap_or(1);
        if group.members.len() != tp {
            r.push(Diagnostic::new(
                Code::TpCollectiveMismatch,
                Location::Stage(s),
                format!(
                    "group {} has {} member(s) but stage {s} splits {tp}-way",
                    group.label,
                    group.members.len()
                ),
            ));
            continue;
        }
        if !group.members.windows(2).all(|w| w[1] == w[0] + 1) {
            r.push(Diagnostic::new(
                Code::TpCollectiveMismatch,
                Location::Stage(s),
                format!(
                    "group {} members are not contiguous ranks — the slot \
                     convention places a tensor group on [j·tp, (j+1)·tp)",
                    group.label
                ),
            ));
        }
        for &m in &group.members {
            if p.stage_of_rank.get(m).copied().flatten() != Some(s) {
                r.push(Diagnostic::new(
                    Code::TpCollectiveMismatch,
                    Location::Device(m),
                    format!("rank d{m} of group {} does not host stage {s}", group.label),
                ));
            }
            let issues = p.programs.get(m).is_some_and(|prog| {
                prog.iter()
                    .any(|op| matches!(op, CommOp::AllReduce { group: g, .. } if *g == gi))
            });
            if !issues {
                r.push(Diagnostic::new(
                    Code::TpCollectiveMismatch,
                    Location::Device(m),
                    format!(
                        "rank d{m} never issues the collectives of group {} it belongs to",
                        group.label
                    ),
                ));
            }
        }
    }
    r
}

fn check_collective_orders(p: &CommProgram, r: &mut Report) {
    // occurrence counts per (group, rank), and the first issue index of
    // each group on each rank
    let mut counts: Vec<HashMap<usize, usize>> = vec![HashMap::new(); p.groups.len()];
    let mut first_pos: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); p.groups.len()];
    for (rank, prog) in p.programs.iter().enumerate() {
        for (idx, op) in prog.iter().enumerate() {
            if let CommOp::AllReduce { group, .. } = op {
                *counts[*group].entry(rank).or_insert(0) += 1;
                first_pos[*group].entry(rank).or_insert(idx);
            }
        }
    }
    for (gi, group) in p.groups.iter().enumerate() {
        let reference = group
            .members
            .first()
            .map(|&m| counts[gi].get(&m).copied().unwrap_or(0))
            .unwrap_or(0);
        for &m in &group.members {
            let c = counts[gi].get(&m).copied().unwrap_or(0);
            if c != reference {
                r.push(Diagnostic::new(
                    Code::CollectiveOrderMismatch,
                    Location::Device(m),
                    format!(
                        "group {}: rank d{} issues {} collective(s) but rank d{} issues {}",
                        group.label, group.members[0], reference, m, c
                    ),
                ));
            }
        }
    }
    // pairwise relative order: ranks sharing two groups must issue them
    // in the same order (ranks visited ascending, so a finding names the
    // lowest-ranked crossing pair)
    for a in 0..p.groups.len() {
        for b in a + 1..p.groups.len() {
            let mut seen: Option<(bool, usize)> = None; // (a_before_b, rank)
            for (&rank, &pa) in &first_pos[a] {
                let Some(&pb) = first_pos[b].get(&rank) else {
                    continue;
                };
                let order = pa < pb;
                match seen {
                    None => seen = Some((order, rank)),
                    Some((prev, prev_rank)) if prev != order => {
                        let (first, second) = if prev {
                            (&p.groups[a].label, &p.groups[b].label)
                        } else {
                            (&p.groups[b].label, &p.groups[a].label)
                        };
                        r.push(Diagnostic::new(
                            Code::CollectiveOrderMismatch,
                            Location::Device(rank),
                            format!(
                                "rank d{prev_rank} issues {first} before {second} but rank \
                                 d{rank} issues them in the opposite order — the collectives \
                                 cross and both groups hang",
                            ),
                        ));
                        break;
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// Sortable image of a [`MsgTag`] (`PhaseKind` has no `Ord`).
type TagKey = (usize, usize, usize, u8);
/// A directed message channel: `(from_rank, to_rank, tag)`.
type ChannelKey = (usize, usize, TagKey);

fn check_pairing(p: &CommProgram, r: &mut Report) {
    // multiset of messages keyed (from, to, tag)
    let mut sends: BTreeMap<ChannelKey, usize> = BTreeMap::new();
    let mut recvs: BTreeMap<ChannelKey, usize> = BTreeMap::new();
    let mut tags: HashMap<TagKey, MsgTag> = HashMap::new();
    for (rank, prog) in p.programs.iter().enumerate() {
        for op in prog {
            match op {
                CommOp::Send { to, tag, .. } => {
                    *sends.entry((rank, *to, tag.key())).or_insert(0) += 1;
                    tags.insert(tag.key(), *tag);
                }
                CommOp::Recv { from, tag, .. } => {
                    *recvs.entry((*from, rank, tag.key())).or_insert(0) += 1;
                    tags.insert(tag.key(), *tag);
                }
                CommOp::AllReduce { .. } => {}
            }
        }
    }
    let keys: std::collections::BTreeSet<_> = sends.keys().chain(recvs.keys()).copied().collect();
    for k in keys {
        let s = sends.get(&k).copied().unwrap_or(0);
        let v = recvs.get(&k).copied().unwrap_or(0);
        if s != v {
            let (from, to, tk) = k;
            let tag = tags[&tk];
            r.push(Diagnostic::new(
                Code::UnpairedSendRecv,
                Location::Link(from, to),
                format!(
                    "message {tag}: {s} send(s) on d{from} but {v} recv(s) on d{to} — \
                     the {} side blocks forever",
                    if s < v { "receiving" } else { "sending" }
                ),
            ));
        }
    }
}

fn check_deadlock(p: &CommProgram, r: &mut Report) {
    // One dependency node per op, except collectives: every member's
    // k-th occurrence of a group is the *same* node (a barrier). Edges:
    // per-rank program order, plus matched send -> recv. Sends are
    // buffered, so no edge points from a recv back to its send.
    let mut nodes: Vec<String> = Vec::new();
    let mut node_rank: Vec<usize> = Vec::new();
    let mut coll_node: HashMap<(usize, usize), usize> = HashMap::new();
    let mut send_nodes: HashMap<ChannelKey, Vec<usize>> = HashMap::new();
    let mut recv_nodes: HashMap<ChannelKey, Vec<usize>> = HashMap::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (rank, prog) in p.programs.iter().enumerate() {
        let mut prev: Option<usize> = None;
        let mut occurrence: HashMap<usize, usize> = HashMap::new();
        for op in prog {
            let node = match op {
                CommOp::AllReduce { group, .. } => {
                    let k = occurrence.entry(*group).or_insert(0);
                    let id = *coll_node.entry((*group, *k)).or_insert_with(|| {
                        nodes.push(describe(rank, op, &p.groups));
                        node_rank.push(rank);
                        nodes.len() - 1
                    });
                    *k += 1;
                    id
                }
                CommOp::Send { to, tag, .. } => {
                    nodes.push(describe(rank, op, &p.groups));
                    node_rank.push(rank);
                    let id = nodes.len() - 1;
                    send_nodes
                        .entry((rank, *to, tag.key()))
                        .or_default()
                        .push(id);
                    id
                }
                CommOp::Recv { from, tag, .. } => {
                    nodes.push(describe(rank, op, &p.groups));
                    node_rank.push(rank);
                    let id = nodes.len() - 1;
                    recv_nodes
                        .entry((*from, rank, tag.key()))
                        .or_default()
                        .push(id);
                    id
                }
            };
            if let Some(pv) = prev {
                if pv != node {
                    edges.push((pv, node));
                }
            }
            prev = Some(node);
        }
    }
    for (k, ss) in &send_nodes {
        if let Some(rr) = recv_nodes.get(k) {
            for (&s, &v) in ss.iter().zip(rr) {
                edges.push((s, v));
            }
        }
    }

    // Kahn's algorithm; leftovers are on (or downstream of) a cycle.
    let n = nodes.len();
    let mut indegree = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        indegree[b] += 1;
        out[a].push(b);
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut done = 0usize;
    while let Some(i) = queue.pop() {
        done += 1;
        for &j in &out[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                queue.push(j);
            }
        }
    }
    if done < n {
        let stuck: Vec<usize> = (0..n).filter(|&i| indegree[i] > 0).collect();
        let shown: Vec<&str> = stuck.iter().take(4).map(|&i| nodes[i].as_str()).collect();
        r.push(Diagnostic::new(
            Code::CommDeadlock,
            Location::Device(node_rank[stuck[0]]),
            format!(
                "communication program has a dependency cycle: {} op(s) can never \
                 be issued, starting with [{}]",
                stuck.len(),
                shown.join("; "),
            ),
        ));
    }
}

/// Whether `v` is live on entry to the stage `set`: non-static, read by
/// a task of the stage and produced outside it — exactly the live-in set
/// of the stage's forward→backward program (DESIGN.md §13).
pub(crate) fn live_on_entry(g: &TaskGraph, set: &TaskSet, v: ValueId) -> bool {
    let val = g.value(v);
    !val.kind.is_static()
        && val.consumers.iter().any(|c| set.contains(*c))
        && !val.producer.is_some_and(|p| set.contains(p))
}

/// Liveness-informed transfer hygiene: RV063 for transfers of values
/// dead at the consumer stage, RV064 for duplicate deliveries of one
/// value to one device.
pub fn verify_transfers(g: &TaskGraph, plan: &PlanView<'_>, p: &CommProgram) -> Report {
    let mut r = Report::new();
    let mut dead_reported: std::collections::BTreeSet<(u32, usize, usize)> = Default::default();
    let mut deliveries: BTreeMap<(usize, usize, u8, u32), usize> = BTreeMap::new();
    let mut link_of: HashMap<(usize, usize, u8, u32), (usize, usize)> = HashMap::new();
    for (rank, prog) in p.programs.iter().enumerate() {
        for op in prog {
            let CommOp::Send {
                to, tag, values, ..
            } = op
            else {
                continue;
            };
            for &v in values {
                if tag.kind == PhaseKind::Forward {
                    let dst = plan.stages.get(tag.dst_stage).map(|s| s.set);
                    if let Some(set) = dst.filter(|set| set.universe() == g.num_tasks()) {
                        if !live_on_entry(g, set, ValueId(v))
                            && dead_reported.insert((v, tag.src_stage, tag.dst_stage))
                        {
                            r.push(Diagnostic::new(
                                Code::DeadTransfer,
                                Location::Link(rank, *to),
                                format!(
                                    "value '{}' is sent s{}->s{} but is not live at stage {} \
                                     — the transfer moves dead bytes",
                                    g.value(ValueId(v)).name,
                                    tag.src_stage,
                                    tag.dst_stage,
                                    tag.dst_stage,
                                ),
                            ));
                        }
                    }
                }
                let key = (*to, tag.micro, tag.kind as u8, v);
                *deliveries.entry(key).or_insert(0) += 1;
                link_of.entry(key).or_insert((rank, *to));
            }
        }
    }
    for (key, count) in deliveries {
        if count > 1 {
            let (to, micro, kind, v) = key;
            let (from, _) = link_of[&key];
            let kind = if kind == PhaseKind::Forward as u8 {
                "forward"
            } else {
                "backward"
            };
            r.push(Diagnostic::new(
                Code::RedundantTransfer,
                Location::Link(from, to),
                format!(
                    "value '{}' is delivered to d{to} {count} times for {kind} mb{micro} \
                     — duplicate transfer",
                    g.value(ValueId(v)).name,
                ),
            ));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_checks::StageView;
    use rannc_graph::{DType, GraphBuilder, OpKind, TaskId, TaskSet};

    fn chain(len: usize) -> TaskGraph {
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input("x", [64], DType::F32);
        for _ in 0..len {
            x = b.unary(OpKind::Relu, x);
        }
        b.output(x);
        b.finish()
    }

    fn two_stage_view<'a>(sets: &'a [TaskSet; 2], replica_factor: usize) -> PlanView<'a> {
        PlanView {
            model: "chain",
            stages: sets
                .iter()
                .map(|set| StageView {
                    set,
                    replicas: 1,
                    tensor_parallel: 1,
                    micro_batch: 4,
                    fwd_time: 0.01,
                    bwd_time: 0.02,
                    mem_bytes: 8 << 30,
                    param_elems: 1000,
                })
                .collect(),
            microbatches: 4,
            replica_factor,
            batch_size: 16,
        }
    }

    fn split_sets(g: &TaskGraph) -> [TaskSet; 2] {
        let n = g.num_tasks();
        [
            TaskSet::from_ids(n, (0..n as u32 / 2).map(TaskId)),
            TaskSet::from_ids(n, (n as u32 / 2..n as u32).map(TaskId)),
        ]
    }

    fn tag(src: usize, dst: usize, micro: usize, kind: PhaseKind) -> MsgTag {
        MsgTag {
            src_stage: src,
            dst_stage: dst,
            micro,
            kind,
        }
    }

    #[test]
    fn derived_program_is_race_free() {
        let g = chain(4);
        let sets = split_sets(&g);
        let view = two_stage_view(&sets, 2);
        let assignment = vec![vec![vec![0], vec![1]], vec![vec![2], vec![3]]];
        let schedule = ScheduleModel::fill_drain(2, 4);
        let p = CommProgram::derive(&g, &view, &schedule, &assignment);
        // every rank communicates: fwd + bwd transfers, then the DP
        // all-reduce of its stage
        assert_eq!(p.programs.len(), 4);
        assert_eq!(p.groups.len(), 2);
        assert!(p.programs.iter().all(|prog| !prog.is_empty()));
        assert_eq!(p.stage_of_rank, vec![Some(0), Some(1), Some(0), Some(1)]);
        let r = verify_comm(&p);
        assert!(r.is_clean(), "{}", r.render());
        let t = verify_transfers(&g, &view, &p);
        assert!(t.is_clean(), "{}", t.render());
    }

    #[test]
    fn one_f_one_b_derivation_is_also_clean() {
        let g = chain(6);
        let sets = split_sets(&g);
        let view = two_stage_view(&sets, 1);
        let assignment = vec![vec![vec![0], vec![1]]];
        let schedule = ScheduleModel::one_f_one_b(2, 6);
        let p = CommProgram::derive(&g, &view, &schedule, &assignment);
        let r = verify_comm(&p);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn tensor_parallel_program_is_race_free_and_well_grouped() {
        let g = chain(4);
        let sets = split_sets(&g);
        let mut view = two_stage_view(&sets, 2);
        view.stages[0].tensor_parallel = 2;
        view.stages[1].tensor_parallel = 2;
        view.batch_size = 1 << 20;
        // 2 pipeline replicas x 2 stages x (1 replica x tp 2) = 8 ranks
        let assignment = vec![vec![vec![0, 1], vec![2, 3]], vec![vec![4, 5], vec![6, 7]]];
        let schedule = ScheduleModel::fill_drain(2, 4);
        let p = CommProgram::derive(&g, &view, &schedule, &assignment);
        // 4 TP groups (one per stage per pipeline replica) and 4 per-shard
        // DP gradient groups (2 stages x 2 shards)
        assert_eq!(
            p.groups.iter().filter(|gr| gr.tp_stage.is_some()).count(),
            4
        );
        assert_eq!(
            p.groups.iter().filter(|gr| gr.tp_stage.is_none()).count(),
            4
        );
        // the shard gradient payload is halved
        let dp = p
            .groups
            .iter()
            .position(|gr| gr.tp_stage.is_none())
            .unwrap();
        let bytes = p.programs[p.groups[dp].members[0]]
            .iter()
            .find_map(|op| match op {
                CommOp::AllReduce { group, bytes } if *group == dp => Some(*bytes),
                _ => None,
            })
            .unwrap();
        assert_eq!(bytes, view.stages[0].param_elems * 4 / 2);
        // non-leader ranks still participate (TP collectives at least)
        assert!(p.programs.iter().all(|prog| !prog.is_empty()));
        let r = verify_comm(&p);
        assert!(r.is_clean(), "{}", r.render());
        let t = verify_tp_groups(&p, &view);
        assert!(t.is_clean(), "{}", t.render());
    }

    /// The program's TP all-reduces carry what the search prices: on
    /// each stage of a 2-layer BERT split two ways at `T = 2`, every
    /// micro-batch's forward and backward all-reduce moves exactly
    /// `tp_allreduce_bytes` (at FP32, the program's unit).
    #[test]
    fn tp_allreduce_bytes_match_the_price() {
        use rannc_models::{bert_graph, BertConfig};
        use rannc_profile::{Profiler, ProfilerOptions};
        let g = bert_graph(&BertConfig::tiny());
        let sets = split_sets(&g);
        let mut view = two_stage_view(&sets, 1);
        view.stages.iter_mut().for_each(|s| s.tensor_parallel = 2);
        let (mb, micro) = (4, view.stages[0].micro_batch);
        let assignment = vec![vec![vec![0, 1], vec![2, 3]]];
        let p = CommProgram::derive(&g, &view, &ScheduleModel::fill_drain(2, mb), &assignment);
        let prof = Profiler::new(
            &g,
            rannc_hw::DeviceSpec::v100_32gb(),
            ProfilerOptions::fp32(),
        );
        for (s, set) in sets.iter().enumerate() {
            let want = prof.tp_allreduce_bytes(&prof.profiled(set), micro);
            assert!(want > 0, "stage {s} holds a row-split matmul");
            for (rank, prog) in p.programs.iter().enumerate() {
                if p.stage_of_rank[rank] != Some(s) {
                    continue;
                }
                let tp: Vec<usize> = prog
                    .iter()
                    .filter_map(|op| match op {
                        CommOp::AllReduce { group, bytes }
                            if p.groups[*group].tp_stage.is_some() =>
                        {
                            Some(*bytes)
                        }
                        _ => None,
                    })
                    .collect();
                // one forward and one backward all-reduce per micro-batch
                assert_eq!(tp, vec![want; 2 * mb], "stage {s}, rank {rank}");
            }
        }
        assert!(verify_comm(&p).is_clean());
    }

    #[test]
    fn corrupted_tp_group_is_rv071() {
        let g = chain(4);
        let sets = split_sets(&g);
        let mut view = two_stage_view(&sets, 1);
        view.stages[0].tensor_parallel = 2;
        view.stages[1].tensor_parallel = 2;
        view.batch_size = 1 << 20;
        let assignment = vec![vec![vec![0, 1], vec![2, 3]]];
        let schedule = ScheduleModel::fill_drain(2, 2);
        let base = CommProgram::derive(&g, &view, &schedule, &assignment);
        assert!(verify_tp_groups(&base, &view).is_clean());

        // wrong width: a 1-member "group" cannot split 2-way
        let mut p = base.clone();
        let gi = p
            .groups
            .iter()
            .position(|gr| gr.tp_stage.is_some())
            .unwrap();
        p.groups[gi].members.pop();
        let r = verify_tp_groups(&p, &view);
        assert!(r.has_code(Code::TpCollectiveMismatch), "{}", r.render());

        // non-contiguous membership straddling both stages
        let mut p = base.clone();
        let gi = p
            .groups
            .iter()
            .position(|gr| gr.tp_stage.is_some())
            .unwrap();
        p.groups[gi].members = vec![0, 2];
        let r = verify_tp_groups(&p, &view);
        assert!(r.has_code(Code::TpCollectiveMismatch), "{}", r.render());

        // a member that never issues the group's collectives
        let mut p = base.clone();
        let gi = p
            .groups
            .iter()
            .position(|gr| gr.tp_stage.is_some())
            .unwrap();
        let victim = p.groups[gi].members[1];
        p.programs[victim]
            .retain(|op| !matches!(op, CommOp::AllReduce { group, .. } if *group == gi));
        let r = verify_tp_groups(&p, &view);
        assert!(r.has_code(Code::TpCollectiveMismatch), "{}", r.render());
    }

    #[test]
    fn swapped_collective_order_is_rv060() {
        let groups = vec![
            CollectiveGroup {
                members: vec![0, 1],
                label: "dp-stage0".into(),
                tp_stage: None,
            },
            CollectiveGroup {
                members: vec![0, 1],
                label: "dp-stage1".into(),
                tp_stage: None,
            },
        ];
        let ar = |group| CommOp::AllReduce { group, bytes: 64 };
        let p = CommProgram {
            programs: vec![vec![ar(0), ar(1)], vec![ar(1), ar(0)]],
            groups,
            stage_of_rank: vec![Some(0), Some(0)],
        };
        let r = verify_comm(&p);
        assert!(r.has_code(Code::CollectiveOrderMismatch), "{}", r.render());
        // the crossed barriers also deadlock under the dependency model
        assert!(r.has_code(Code::CommDeadlock), "{}", r.render());
    }

    /// Three ranks, two groups: ranks 0 and 2 issue `dp-stage0` first,
    /// rank 1 issues `dp-stage1` first. The finding names the
    /// lowest-ranked crossing pair on every run, whatever the hasher.
    #[test]
    fn crossed_collectives_name_the_lowest_ranked_pair() {
        let group = |label: &str| CollectiveGroup {
            members: vec![0, 1, 2],
            label: label.into(),
            tp_stage: None,
        };
        let ar = |group| CommOp::AllReduce { group, bytes: 64 };
        let p = CommProgram {
            programs: vec![vec![ar(0), ar(1)], vec![ar(1), ar(0)], vec![ar(0), ar(1)]],
            groups: vec![group("dp-stage0"), group("dp-stage1")],
            stage_of_rank: vec![Some(0); 3],
        };
        for _ in 0..50 {
            let r = verify_comm(&p);
            let crossed: Vec<String> = r
                .diagnostics
                .iter()
                .filter(|d| d.code == Code::CollectiveOrderMismatch)
                .map(|d| d.render())
                .collect();
            assert_eq!(
                crossed,
                vec![
                    "error[RV060]: device d1: rank d0 issues dp-stage0 before dp-stage1 but \
                     rank d1 issues them in the opposite order — the collectives cross and \
                     both groups hang"
                        .to_string()
                ],
            );
        }
    }

    #[test]
    fn missing_recv_is_rv061() {
        let t = tag(0, 1, 0, PhaseKind::Forward);
        let p = CommProgram {
            programs: vec![
                vec![CommOp::Send {
                    to: 1,
                    tag: t,
                    bytes: 256,
                    values: vec![1],
                }],
                vec![],
            ],
            groups: vec![],
            stage_of_rank: vec![Some(0), Some(1)],
        };
        let r = verify_comm(&p);
        assert!(r.has_code(Code::UnpairedSendRecv), "{}", r.render());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::UnpairedSendRecv)
            .unwrap();
        assert!(matches!(d.location, Location::Link(0, 1)), "{d}");
    }

    #[test]
    fn crossed_recvs_are_a_deadlock() {
        // d0 waits for d1's message before sending its own, and vice
        // versa — pairing is fine, but nobody ever sends first.
        let ta = tag(1, 0, 0, PhaseKind::Forward);
        let tb = tag(0, 1, 0, PhaseKind::Forward);
        let p = CommProgram {
            programs: vec![
                vec![
                    CommOp::Recv {
                        from: 1,
                        tag: ta,
                        bytes: 4,
                        values: vec![0],
                    },
                    CommOp::Send {
                        to: 1,
                        tag: tb,
                        bytes: 4,
                        values: vec![1],
                    },
                ],
                vec![
                    CommOp::Recv {
                        from: 0,
                        tag: tb,
                        bytes: 4,
                        values: vec![1],
                    },
                    CommOp::Send {
                        to: 0,
                        tag: ta,
                        bytes: 4,
                        values: vec![0],
                    },
                ],
            ],
            groups: vec![],
            stage_of_rank: vec![Some(0), Some(1)],
        };
        let r = verify_comm(&p);
        assert!(!r.has_code(Code::UnpairedSendRecv), "{}", r.render());
        assert!(r.has_code(Code::CommDeadlock), "{}", r.render());
    }

    #[test]
    fn duplicate_delivery_is_rv064() {
        let g = chain(4);
        let sets = split_sets(&g);
        let view = two_stage_view(&sets, 1);
        let assignment = vec![vec![vec![0], vec![1]]];
        let schedule = ScheduleModel::fill_drain(2, 2);
        let mut p = CommProgram::derive(&g, &view, &schedule, &assignment);
        // duplicate the first forward send and its matching recv
        let dup_send = p.programs[0]
            .iter()
            .find(|op| matches!(op, CommOp::Send { .. }))
            .cloned()
            .unwrap();
        let dup_recv = p.programs[1]
            .iter()
            .find(|op| matches!(op, CommOp::Recv { .. }))
            .cloned()
            .unwrap();
        p.programs[0].push(dup_send);
        p.programs[1].push(dup_recv);
        assert!(verify_comm(&p).is_clean());
        let r = verify_transfers(&g, &view, &p);
        assert!(r.has_code(Code::RedundantTransfer), "{}", r.render());
    }

    #[test]
    fn transfer_of_dead_value_is_rv063() {
        let g = chain(4);
        let sets = split_sets(&g);
        let view = two_stage_view(&sets, 1);
        let assignment = vec![vec![vec![0], vec![1]]];
        let schedule = ScheduleModel::fill_drain(2, 2);
        let mut p = CommProgram::derive(&g, &view, &schedule, &assignment);
        // bolt on a transfer of stage 0's *first* intermediate, which
        // stage 1 never reads
        let first = g.task(TaskId(0)).outputs[0];
        let t = tag(0, 1, 0, PhaseKind::Forward);
        p.programs[0].push(CommOp::Send {
            to: 1,
            tag: t,
            bytes: 4,
            values: vec![first.0],
        });
        p.programs[1].push(CommOp::Recv {
            from: 0,
            tag: t,
            bytes: 4,
            values: vec![first.0],
        });
        let r = verify_transfers(&g, &view, &p);
        assert!(r.has_code(Code::DeadTransfer), "{}", r.render());
    }
}
