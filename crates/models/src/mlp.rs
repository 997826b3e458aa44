//! Small MLP graphs for tests and the numeric loss-validation experiment.

use rannc_graph::{DType, GraphBuilder, OpKind, TaskGraph};

/// Hyper-parameters of a plain MLP classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths, in order.
    pub hidden_dims: Vec<usize>,
    /// Output classes.
    pub classes: usize,
}

impl MlpConfig {
    /// A deep-ish MLP whose layers give the partitioner something to
    /// balance: `depth` hidden layers of width `width`.
    pub fn deep(input_dim: usize, width: usize, depth: usize, classes: usize) -> Self {
        MlpConfig {
            input_dim,
            hidden_dims: vec![width; depth],
            classes,
        }
    }

    /// Model name for reports.
    pub fn name(&self) -> String {
        format!(
            "mlp[in={},hidden={}x{},out={}]",
            self.input_dim,
            self.hidden_dims.first().copied().unwrap_or(0),
            self.hidden_dims.len(),
            self.classes
        )
    }

    /// Closed-form parameter count.
    pub fn param_count(&self) -> usize {
        let mut total = 0;
        let mut prev = self.input_dim;
        for &w in &self.hidden_dims {
            total += prev * w + w;
            prev = w;
        }
        total + prev * self.classes + self.classes
    }
}

/// Build the training graph (features → logits → cross-entropy).
///
/// Tensor-parallel layout: hidden layers pair up Megatron-style, the
/// first of each pair column-split and the second row-split. An unpaired
/// last hidden layer and the head are replicated.
pub fn mlp_graph(cfg: &MlpConfig) -> TaskGraph {
    let mut b = GraphBuilder::new(cfg.name());
    let mut x = b.input("features", [cfg.input_dim], DType::F32);
    let label = b.input("label", [1], DType::I64);
    let mut prev = cfg.input_dim;
    let paired = cfg.hidden_dims.len() / 2 * 2;
    for (i, &w) in cfg.hidden_dims.iter().enumerate() {
        b.set_scope(format!("fc{i}"));
        let name = format!("fc{i}");
        x = if i >= paired {
            b.linear(&name, x, prev, w)
        } else if i % 2 == 0 {
            b.linear_column(&name, x, prev, w)
        } else {
            b.linear_row(&name, x, prev, w)
        };
        x = b.unary(OpKind::Relu, x);
        prev = w;
    }
    b.set_scope("head");
    let logits = b.linear("head", x, prev, cfg.classes);
    let loss = b.cross_entropy(logits, label);
    b.output(loss);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_counts() {
        let cfg = MlpConfig::deep(32, 64, 4, 10);
        let g = mlp_graph(&cfg);
        g.validate().unwrap();
        assert_eq!(g.param_count(), cfg.param_count());
        // per hidden layer: matmul+bias+relu = 3 tasks; head 2; xent 1
        assert_eq!(g.num_tasks(), 4 * 3 + 2 + 1);
    }

    #[test]
    fn single_layer() {
        let cfg = MlpConfig {
            input_dim: 8,
            hidden_dims: vec![],
            classes: 2,
        };
        let g = mlp_graph(&cfg);
        assert_eq!(g.param_count(), 8 * 2 + 2);
    }
}
