//! A pipeline stage: an ordered stack of layers with a local optimizer.

use crate::layer::Layer;
use rannc_tensor::{Adam, AdamSlotState, Matrix};

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

/// Re-split trained stages into a different stage count, migrating both
/// the layers and their per-layer Adam moments — the trainer-level
/// analogue of the planner's post-replan parameter migration. The
/// continued run is bit-identical to one that never changed its split:
/// synchronous pipeline math is invariant to stage boundaries, and the
/// optimizer state travels with each layer.
pub fn restage(stages: Vec<Stage>, n: usize, lr: f32) -> Vec<Stage> {
    // each layer owns the optimizer-slot range
    // [i * SLOT_STRIDE, (i + 1) * SLOT_STRIDE) within its stage; detach
    // every slot of that range alongside the layer itself
    let mut layers: Vec<Layer> = Vec::new();
    let mut moments: Vec<Vec<Option<AdamSlotState>>> = Vec::new();
    for mut stage in stages {
        for (i, layer) in stage.layers.drain(..).enumerate() {
            let base = Layer::SLOT_STRIDE * i;
            moments.push(
                (0..Layer::SLOT_STRIDE)
                    .map(|k| stage.opt.take_slot(base + k))
                    .collect(),
            );
            layers.push(layer);
        }
    }
    let mut out = split_into_stages(layers, n, lr);
    let mut moments = moments.into_iter();
    for stage in &mut out {
        for i in 0..stage.layers.len() {
            let base = Layer::SLOT_STRIDE * i;
            let states = moments.next().expect("one moment range per layer");
            for (k, state) in states.into_iter().enumerate() {
                if let Some(state) = state {
                    stage.opt.restore_slot(base + k, state);
                }
            }
        }
    }
    out
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
    fn restage_preserves_layers_and_params() {
        let layers = build_mlp(&[8, 16, 16, 16, 4], 1);
        let n_layers = layers.len();
        let total: usize = layers.iter().map(Layer::param_count).sum();
        let stages = split_into_stages(layers, 4, 0.01);
        let restaged = restage(stages, 2, 0.01);
        assert_eq!(restaged.len(), 2);
        assert_eq!(
            restaged.iter().map(|s| s.layers().len()).sum::<usize>(),
            n_layers
        );
        assert_eq!(
            restaged.iter().map(Stage::param_count).sum::<usize>(),
            total
        );
    }

    #[test]
    fn restage_mid_run_continues_bit_identically() {
        // train 10 iterations on 3 stages, re-split to 2 stages (layers +
        // Adam moments migrate), train 10 more — the loss trajectory and
        // final weights must be bit-identical to a run that never
        // changed its split
        use crate::data::Dataset;
        use crate::pipeline::{run_segment, Mode, TrainConfig};

        let data = Dataset::synthetic(64, 8, 4, 11);
        let cfg = TrainConfig {
            iterations: 20,
            batch_size: 16,
            microbatches: 4,
        };
        let fresh = || split_into_stages(build_mlp(&[8, 32, 32, 32, 4], 5), 3, 0.01);

        let (ref_losses, ref_stages) =
            run_segment(fresh(), &data, &cfg, Mode::Synchronous, 0..20).unwrap();

        let (mut losses, trained) =
            run_segment(fresh(), &data, &cfg, Mode::Synchronous, 0..10).unwrap();
        let restaged = restage(trained, 2, 0.01);
        let (tail, final_stages) =
            run_segment(restaged, &data, &cfg, Mode::Synchronous, 10..20).unwrap();
        losses.extend(tail);

        assert_eq!(losses, ref_losses, "losses diverged across the re-split");
        let flat = |stages: &[Stage]| -> Vec<Vec<f32>> {
            stages
                .iter()
                .flat_map(|s| s.layers().iter())
                .filter_map(|l| match l {
                    Layer::Linear { w, .. } => Some(w.data.clone()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(
            flat(&final_stages),
            flat(&ref_stages),
            "weights diverged across the re-split"
        );
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
