//! A pipeline stage: an ordered stack of layers with a local optimizer.

use crate::layer::Layer;
use rannc_tensor::{Adam, Matrix};

/// One pipeline stage owning a slice of the model and its optimizer.
///
/// Each stage keeps its own Adam instance (slot-indexed per layer), just
/// as every RaNNC subcomponent runs its own optimizer locally — parameter
/// updates never cross stage boundaries.
#[derive(Debug, Clone)]
pub struct Stage {
    layers: Vec<Layer>,
    opt: Adam,
}

impl Stage {
    /// Create a stage from layers with an Adam learning rate.
    pub fn new(layers: Vec<Layer>, lr: f32) -> Self {
        Stage {
            layers,
            opt: Adam::new(lr),
        }
    }

    /// Forward one micro-batch through all layers.
    pub fn forward(&mut self, mb: usize, mut x: Matrix) -> Matrix {
        for l in &mut self.layers {
            x = l.forward(mb, x);
        }
        x
    }

    /// Backward one micro-batch through all layers (reverse order).
    pub fn backward(&mut self, mb: usize, mut dy: Matrix) -> Matrix {
        for l in self.layers.iter_mut().rev() {
            dy = l.backward(mb, dy);
        }
        dy
    }

    /// Synchronous update: sum all micro-batch gradients (ascending
    /// micro-batch order) and step once.
    pub fn step(&mut self) {
        for (i, l) in self.layers.iter_mut().enumerate() {
            l.step(&mut self.opt, i);
        }
    }

    /// Asynchronous update: apply this micro-batch's gradients
    /// immediately (induces parameter staleness).
    pub fn step_immediate(&mut self, mb: usize) {
        for (i, l) in self.layers.iter_mut().enumerate() {
            l.step_immediate(mb, &mut self.opt, i);
        }
    }

    /// Trainable parameters in this stage.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Immutable view of the layers (for tests).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }
}

/// Build a deep MLP as a flat layer list: `dims[0] -> dims[1] -> …`,
/// ReLU between layers, no activation after the last.
pub fn build_mlp(dims: &[usize], seed: u64) -> Vec<Layer> {
    assert!(dims.len() >= 2);
    let mut layers = Vec::new();
    for i in 0..dims.len() - 1 {
        layers.push(Layer::linear(
            dims[i],
            dims[i + 1],
            seed.wrapping_add(i as u64),
        ));
        if i + 2 < dims.len() {
            layers.push(Layer::relu());
        }
    }
    layers
}

/// Split a flat layer list into `n` stages of (as equal as possible)
/// consecutive layers.
pub fn split_into_stages(layers: Vec<Layer>, n: usize, lr: f32) -> Vec<Stage> {
    assert!(n >= 1 && n <= layers.len());
    let total = layers.len();
    let per = total / n;
    let rem = total % n;
    let mut stages = Vec::with_capacity(n);
    let mut iter = layers.into_iter();
    for s in 0..n {
        let take = per + usize::from(s < rem);
        let chunk: Vec<Layer> = iter.by_ref().take(take).collect();
        stages.push(Stage::new(chunk, lr));
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_structure() {
        let layers = build_mlp(&[8, 16, 16, 4], 1);
        // 3 linears + 2 relus
        assert_eq!(layers.len(), 5);
        let total: usize = layers.iter().map(Layer::param_count).sum();
        assert_eq!(total, 8 * 16 + 16 + 16 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn split_preserves_all_layers() {
        let layers = build_mlp(&[8, 16, 16, 16, 4], 1);
        let n_layers = layers.len();
        let total: usize = layers.iter().map(Layer::param_count).sum();
        let stages = split_into_stages(layers, 3, 0.01);
        assert_eq!(stages.len(), 3);
        assert_eq!(
            stages.iter().map(|s| s.layers().len()).sum::<usize>(),
            n_layers
        );
        assert_eq!(stages.iter().map(Stage::param_count).sum::<usize>(), total);
    }

    #[test]
    fn stage_forward_backward_roundtrip() {
        let mut st = Stage::new(build_mlp(&[4, 8, 2], 3), 0.01);
        let x = Matrix::from_vec(2, 4, vec![0.1; 8]);
        let y = st.forward(0, x);
        assert_eq!((y.rows, y.cols), (2, 2));
        let dx = st.backward(0, Matrix::from_vec(2, 2, vec![1.0; 4]));
        assert_eq!((dx.rows, dx.cols), (2, 4));
        st.step();
    }
}
