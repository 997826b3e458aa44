//! Structured diagnostics: stable codes, severities, locations, rendering.
//!
//! Every check in this crate reports through [`Diagnostic`] instead of
//! panicking, so callers (the partitioner post-pass, plan loading, the
//! `verify` CLI subcommand) can decide whether a finding is fatal. Codes
//! are stable across releases: tests and scripts match on `RV0xx`
//! identifiers, never on message text.

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The artifact is unusable: training would crash, deadlock or
    /// silently compute the wrong thing.
    Error,
    /// The artifact works but smells: wasted devices, imbalance, dead
    /// tasks.
    Warning,
}

/// Stable diagnostic codes.
///
/// `RV00x` — graph well-formedness, `RV02x`/`RV03x` — plan validity,
/// `RV04x` — plan quality warnings, `RV05x` — schedule analysis,
/// `RV06x` — communication-program analysis, `RV07x` — tensor-parallel
/// checks, `RV1xx` — dataflow certification (liveness-certified
/// memory). The numeric identifier of each variant is part of the
/// public contract (see DESIGN.md §8/§13); add new codes, never
/// renumber existing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// A task references a value id outside the graph.
    DanglingValueRef,
    /// Two tasks claim to produce the same value.
    MultiProducer,
    /// The task graph contains a cycle.
    GraphCycle,
    /// A task cannot reach any declared model output.
    UnreachableTask,
    /// A task's output shape/dtype contradicts its operator's inference
    /// rule.
    ShapeRuleViolation,
    /// A param/const value has a producer, or an activation has none.
    MislabeledStatic,
    /// Producer/consumer back-links disagree with task input/output lists.
    InconsistentLinks,
    /// The graph declares no model outputs.
    NoModelOutputs,
    /// The tensor-parallel split rule is inconsistent: a row-split
    /// matmul reads no column- or head-split activation, or a split
    /// tensor leaves its split region other than through a row-split
    /// matmul (the layout would need a collective nobody prices).
    TpSplitInconsistent,
    /// The plan has no stages.
    NoStages,
    /// A stage set's universe disagrees with the graph (or other stages).
    UniverseMismatch,
    /// A stage contains no tasks.
    EmptyStage,
    /// Some task belongs to no stage.
    CoverageHole,
    /// A non-constant task appears in more than one stage.
    DuplicateAssignment,
    /// A stage set is not convex in the task graph.
    NonConvexStage,
    /// A value produced in a later stage is consumed in an earlier one.
    BackwardStageEdge,
    /// A stage's profiled peak memory exceeds device capacity.
    MemoryOverCapacity,
    /// The plan consumes more devices than the cluster has healthy.
    DeviceOversubscription,
    /// Zero replicas, pipeline replicas, micro-batches or batch size.
    DegenerateCounts,
    /// Per-replica micro-batch accounting cannot tile the global batch.
    MicrobatchInfeasible,
    /// Every task in a stage is layout-only (no arithmetic).
    ZeroComputeStage,
    /// The slowest stage is more than 2x the fastest.
    BottleneckImbalance,
    /// The micro-batch tiling leaves part of the global batch unused.
    UnevenBatchSplit,
    /// A stage's work order misses or duplicates a micro-batch phase.
    ScheduleIncomplete,
    /// The schedule's dependency graph has a cycle (deadlock).
    ScheduleDeadlock,
    /// A backward is ordered before its own forward within a stage.
    BackwardBeforeForward,
    /// Ranks of one collective group issue the group's collectives in
    /// different orders (the classic NCCL hang).
    CollectiveOrderMismatch,
    /// A point-to-point send has no matching receive on the peer rank
    /// (or a receive has no matching send).
    UnpairedSendRecv,
    /// The cross-rank communication program has a wait cycle: matched
    /// rendezvous pairs and collectives cannot be ordered.
    CommDeadlock,
    /// A stage-boundary transfer carries a value that is not live (never
    /// consumed) at the destination stage.
    DeadTransfer,
    /// The same value is transferred to the same device more than once
    /// for one micro-batch.
    RedundantTransfer,
    /// The liveness-certified peak memory of a stage exceeds the
    /// capacity of a device hosting it.
    CertifiedMemoryOverCapacity,
    /// The profiler's memory estimate diverges from the certified peak
    /// beyond tolerance (the plan was priced with an unreliable number).
    MemoryEstimateDivergence,
    /// A stage's tensor-parallel degree is zero or leaves a split
    /// dimension of the graph indivisible (error), or its tp-wide device
    /// groups straddle node boundaries unevenly (warning: the uniform
    /// intra/inter-node collective pricing is unreliable there).
    TpSlotWidth,
    /// A tensor-parallel collective's membership contradicts the slot
    /// convention: the group must be exactly the `tp` contiguous ranks
    /// of one data-parallel replica, with every member issuing it.
    TpCollectiveMismatch,
    /// The T-scaled liveness-certified peak (parameter/optimizer state
    /// and column- and head-split activations sharded `1/T`, every other
    /// activation full-size) of a tensor-parallel stage
    /// exceeds the capacity of a device hosting it.
    TpCertifiedMemoryOverCapacity,
}

impl Code {
    /// The stable `RV0xx` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Code::DanglingValueRef => "RV001",
            Code::MultiProducer => "RV002",
            Code::GraphCycle => "RV003",
            Code::UnreachableTask => "RV004",
            Code::ShapeRuleViolation => "RV005",
            Code::MislabeledStatic => "RV006",
            Code::InconsistentLinks => "RV007",
            Code::NoModelOutputs => "RV008",
            Code::TpSplitInconsistent => "RV009",
            Code::NoStages => "RV020",
            Code::UniverseMismatch => "RV021",
            Code::EmptyStage => "RV022",
            Code::CoverageHole => "RV023",
            Code::DuplicateAssignment => "RV024",
            Code::NonConvexStage => "RV025",
            Code::BackwardStageEdge => "RV026",
            Code::MemoryOverCapacity => "RV027",
            Code::DeviceOversubscription => "RV028",
            Code::DegenerateCounts => "RV029",
            Code::MicrobatchInfeasible => "RV030",
            Code::ZeroComputeStage => "RV040",
            Code::BottleneckImbalance => "RV041",
            Code::UnevenBatchSplit => "RV042",
            Code::ScheduleIncomplete => "RV050",
            Code::ScheduleDeadlock => "RV051",
            Code::BackwardBeforeForward => "RV052",
            Code::CollectiveOrderMismatch => "RV060",
            Code::UnpairedSendRecv => "RV061",
            Code::CommDeadlock => "RV062",
            Code::DeadTransfer => "RV063",
            Code::RedundantTransfer => "RV064",
            Code::TpSlotWidth => "RV070",
            Code::TpCollectiveMismatch => "RV071",
            Code::TpCertifiedMemoryOverCapacity => "RV072",
            Code::CertifiedMemoryOverCapacity => "RV100",
            Code::MemoryEstimateDivergence => "RV101",
        }
    }

    /// Default severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::UnreachableTask
            | Code::NoModelOutputs
            | Code::ZeroComputeStage
            | Code::BottleneckImbalance
            | Code::UnevenBatchSplit
            | Code::DeadTransfer
            | Code::RedundantTransfer
            | Code::MemoryEstimateDivergence => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// The artifact as a whole.
    Model,
    /// A task node (by raw id).
    Task(u32),
    /// A value node (by raw id).
    Value(u32),
    /// One pipeline stage.
    Stage(usize),
    /// A pair of stages (earlier, later).
    StagePair(usize, usize),
    /// One micro-batch phase of a schedule.
    ScheduleOp {
        /// Stage index.
        stage: usize,
        /// Micro-batch index.
        micro: usize,
    },
    /// One device, by global rank (replica-major contiguous order).
    Device(usize),
    /// A directed link between two devices (global ranks).
    Link(usize, usize),
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Model => write!(f, "model"),
            Location::Task(t) => write!(f, "task t{t}"),
            Location::Value(v) => write!(f, "value v{v}"),
            Location::Stage(s) => write!(f, "stage {s}"),
            Location::StagePair(a, b) => write!(f, "stages {a} and {b}"),
            Location::ScheduleOp { stage, micro } => {
                write!(f, "stage {stage} micro-batch {micro}")
            }
            Location::Device(d) => write!(f, "device d{d}"),
            Location::Link(a, b) => write!(f, "link d{a}->d{b}"),
        }
    }
}

/// One finding. The message holds the human-readable specifics (numbers
/// are rendered into the string so the type stays `Eq`-comparable).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Error or warning (defaults to the code's severity).
    pub severity: Severity,
    /// What the finding points at.
    pub location: Location,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with the code's default severity.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
        }
    }

    /// Render as a single `severity[code]: location: message` line.
    pub fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        format!(
            "{sev}[{}]: {}: {}",
            self.code.id(),
            self.location,
            self.message
        )
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered collection of diagnostics from one or more passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// The findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append all findings of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Whether a specific code was reported.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Error findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning findings only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `(errors, warnings)` counts.
    pub fn counts(&self) -> (usize, usize) {
        let errs = self.errors().count();
        (errs, self.diagnostics.len() - errs)
    }

    /// Whether the report is completely clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render all findings, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_have_unique_stable_ids() {
        let all = [
            Code::DanglingValueRef,
            Code::MultiProducer,
            Code::GraphCycle,
            Code::UnreachableTask,
            Code::ShapeRuleViolation,
            Code::MislabeledStatic,
            Code::InconsistentLinks,
            Code::NoModelOutputs,
            Code::TpSplitInconsistent,
            Code::NoStages,
            Code::UniverseMismatch,
            Code::EmptyStage,
            Code::CoverageHole,
            Code::DuplicateAssignment,
            Code::NonConvexStage,
            Code::BackwardStageEdge,
            Code::MemoryOverCapacity,
            Code::DeviceOversubscription,
            Code::DegenerateCounts,
            Code::MicrobatchInfeasible,
            Code::ZeroComputeStage,
            Code::BottleneckImbalance,
            Code::UnevenBatchSplit,
            Code::ScheduleIncomplete,
            Code::ScheduleDeadlock,
            Code::BackwardBeforeForward,
            Code::CollectiveOrderMismatch,
            Code::UnpairedSendRecv,
            Code::CommDeadlock,
            Code::DeadTransfer,
            Code::RedundantTransfer,
            Code::TpSlotWidth,
            Code::TpCollectiveMismatch,
            Code::TpCertifiedMemoryOverCapacity,
            Code::CertifiedMemoryOverCapacity,
            Code::MemoryEstimateDivergence,
        ];
        let ids: std::collections::HashSet<_> = all.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), all.len());
        for c in all {
            assert!(c.id().starts_with("RV"), "{c:?}");
            assert_eq!(c.id().len(), 5, "{c:?}");
        }
    }

    #[test]
    fn report_classification() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        r.push(Diagnostic::new(
            Code::UnreachableTask,
            Location::Task(3),
            "dead task",
        ));
        assert!(!r.has_errors());
        assert!(r.has_code(Code::UnreachableTask));
        r.push(Diagnostic::new(
            Code::EmptyStage,
            Location::Stage(1),
            "empty",
        ));
        assert!(r.has_errors());
        assert_eq!(r.counts(), (1, 1));
    }

    #[test]
    fn rendering_mentions_code_and_location() {
        let d = Diagnostic::new(
            Code::NonConvexStage,
            Location::Stage(2),
            "a path leaves and re-enters the stage",
        );
        let line = d.render();
        assert!(line.starts_with("error[RV025]: stage 2:"), "{line}");
        let w = Diagnostic::new(Code::ZeroComputeStage, Location::Stage(0), "layout only");
        assert!(w.render().starts_with("warning[RV040]"), "{}", w.render());
    }

    #[test]
    fn device_and_link_locations_render() {
        let d = Diagnostic::new(
            Code::CertifiedMemoryOverCapacity,
            Location::Device(11),
            "certified peak 34.1 GiB exceeds 16.0 GiB",
        );
        assert!(d.render().starts_with("error[RV100]: device d11:"), "{d}");
        let l = Diagnostic::new(
            Code::UnpairedSendRecv,
            Location::Link(3, 7),
            "send has no matching recv",
        );
        assert!(l.render().starts_with("error[RV061]: link d3->d7:"), "{l}");
    }

    #[test]
    fn merge_keeps_order() {
        let mut a = Report::new();
        a.push(Diagnostic::new(
            Code::NoStages,
            Location::Model,
            "no stages",
        ));
        let mut b = Report::new();
        b.push(Diagnostic::new(
            Code::EmptyStage,
            Location::Stage(0),
            "empty",
        ));
        a.merge(b);
        assert_eq!(a.diagnostics.len(), 2);
        assert_eq!(a.diagnostics[0].code, Code::NoStages);
        assert_eq!(a.diagnostics[1].code, Code::EmptyStage);
    }
}
