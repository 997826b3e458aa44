//! Plain-text table rendering for the figure harnesses, and the two
//! conversions every harness fills its cells with.

use rannc::baselines::BaselineOutcome;
use rannc::prelude::*;

/// One cell of a throughput table: a number, or the reason there is none.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Samples per second.
    Throughput(f64),
    /// Out of memory — the paper's missing bars.
    Oom,
    /// Framework does not support the architecture.
    NotApplicable,
    /// Search did not finish within its budget (§IV-C's ">24 hours").
    Dnf,
}

impl Cell {
    /// Numeric throughput if present.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Throughput(v) => Some(*v),
            _ => None,
        }
    }

    fn render(&self) -> String {
        match self {
            Cell::Throughput(v) => format!("{v:.1}"),
            Cell::Oom => "OOM".to_string(),
            Cell::NotApplicable => "n/a".to_string(),
            Cell::Dnf => "DNF".to_string(),
        }
    }
}

impl From<BaselineOutcome> for Cell {
    fn from(out: BaselineOutcome) -> Self {
        match out {
            BaselineOutcome::Feasible { result, .. } => Cell::Throughput(result.throughput),
            BaselineOutcome::OutOfMemory => Cell::Oom,
            BaselineOutcome::Unsupported => Cell::NotApplicable,
        }
    }
}

/// Partition `g` with RaNNC under `config` and simulate the plan on
/// `cost`. Only [`PartitionError::Infeasible`] is a memory result (OOM);
/// any other partition error, a verifier rejection included, panics with
/// its text.
pub fn rannc_cell(
    g: &TaskGraph,
    cost: &dyn CostModel,
    cluster: &ClusterSpec,
    config: PartitionConfig,
) -> Cell {
    match Rannc::new(config).partition(g, cluster) {
        Ok(plan) => {
            let sim = rannc::pipeline::simulate_plan(&plan, cost, cluster).expect("valid plan");
            Cell::Throughput(sim.throughput)
        }
        Err(PartitionError::Infeasible) => Cell::Oom,
        Err(e) => panic!("unexpected partition error: {e}"),
    }
}

/// A table with a label column and named value columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers (first is the row-label header).
    pub columns: Vec<String>,
    /// Rows: label + one cell per value column.
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<Cell>) {
        assert_eq!(cells.len() + 1, self.columns.len(), "column count mismatch");
        self.rows.push((label.into(), cells));
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for (label, cells) in &self.rows {
            widths[0] = widths[0].max(label.len());
            for (i, c) in cells.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(c.render().len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for (label, cells) in &self.rows {
            out.push_str(&format!("{:>w$}  ", label, w = widths[0]));
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", c.render(), w = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["layers", "RaNNC", "Megatron"]);
        t.push_row("24", vec![Cell::Throughput(123.4), Cell::Throughput(120.0)]);
        t.push_row("96", vec![Cell::Throughput(40.0), Cell::Oom]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("123.4"));
        assert!(s.contains("OOM"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row("x", vec![]);
    }
}
