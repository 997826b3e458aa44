//! Enlarged (width-scaled) ResNet graphs.
//!
//! §IV-B: "One of the latest models for image classification, Big Transfer
//! (BiT), adopts a model architecture that multiplies the number of filters
//! of convolutions by certain *width factors*. Following this idea, we also
//! scaled the number of filters and set the width factor to 8. The largest
//! model used in this experiment (ResNet152x8) has 3.7 billion parameters."
//!
//! Unlike BERT, ResNet's per-layer costs are strongly imbalanced (early
//! layers see large spatial extents with few channels, late layers the
//! reverse), which is exactly why the paper argues manual stage balancing
//! is hard for GPipe-Model (§IV-B).

use rannc_graph::{DType, GraphBuilder, OpKind, TaskGraph, ValueId};

/// Standard ResNet depths used in the paper's Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResNetDepth {
    /// ResNet-50: bottleneck blocks [3, 4, 6, 3].
    R50,
    /// ResNet-101: [3, 4, 23, 3].
    R101,
    /// ResNet-152: [3, 8, 36, 3].
    R152,
}

impl ResNetDepth {
    /// Bottleneck block counts of the four stages.
    pub fn blocks(self) -> [usize; 4] {
        match self {
            ResNetDepth::R50 => [3, 4, 6, 3],
            ResNetDepth::R101 => [3, 4, 23, 3],
            ResNetDepth::R152 => [3, 8, 36, 3],
        }
    }

    /// Conventional layer count for display ("ResNet152").
    pub fn layer_count(self) -> usize {
        match self {
            ResNetDepth::R50 => 50,
            ResNetDepth::R101 => 101,
            ResNetDepth::R152 => 152,
        }
    }
}

/// Hyper-parameters of a width-scaled ResNet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Network depth.
    pub depth: ResNetDepth,
    /// BiT-style width factor (8 in the paper's largest models).
    pub width_factor: usize,
    /// Input image side (224 for ImageNet).
    pub image_size: usize,
    /// Classifier classes (1000 for ImageNet).
    pub classes: usize,
}

impl ResNetConfig {
    /// `ResNet{depth}x{wf}` on 224×224 ImageNet.
    pub fn new(depth: ResNetDepth, width_factor: usize) -> Self {
        ResNetConfig {
            depth,
            width_factor,
            image_size: 224,
            classes: 1000,
        }
    }

    /// Tiny config for unit tests: ResNet-50 structure at 1/16 width on
    /// 32×32 inputs.
    pub fn tiny() -> Self {
        ResNetConfig {
            depth: ResNetDepth::R50,
            width_factor: 1,
            image_size: 32,
            classes: 10,
        }
    }

    /// Model name used in reports, e.g. `resnet152x8`.
    pub fn name(&self) -> String {
        format!("resnet{}x{}", self.depth.layer_count(), self.width_factor)
    }
}

/// One bottleneck residual block.
///
/// `in_ch -> width (1x1) -> width (3x3, stride) -> 4*width (1x1)` with a
/// projection shortcut when the shape changes.
fn bottleneck(
    b: &mut GraphBuilder,
    prefix: &str,
    x: ValueId,
    in_ch: usize,
    width: usize,
    stride: usize,
) -> ValueId {
    let out_ch = 4 * width;
    let c1 = b.conv2d(&format!("{prefix}.conv1"), x, width, (1, 1), (1, 1), (0, 0));
    let c1 = b.batch_norm(&format!("{prefix}.bn1"), c1);
    let c1 = b.unary(OpKind::Relu, c1);
    let c2 = b.conv2d(
        &format!("{prefix}.conv2"),
        c1,
        width,
        (3, 3),
        (stride, stride),
        (1, 1),
    );
    let c2 = b.batch_norm(&format!("{prefix}.bn2"), c2);
    let c2 = b.unary(OpKind::Relu, c2);
    let c3 = b.conv2d(
        &format!("{prefix}.conv3"),
        c2,
        out_ch,
        (1, 1),
        (1, 1),
        (0, 0),
    );
    let c3 = b.batch_norm(&format!("{prefix}.bn3"), c3);
    let shortcut = if in_ch != out_ch || stride != 1 {
        let s = b.conv2d(
            &format!("{prefix}.downsample"),
            x,
            out_ch,
            (1, 1),
            (stride, stride),
            (0, 0),
        );
        b.batch_norm(&format!("{prefix}.downsample.bn"), s)
    } else {
        x
    };
    let sum = b.binary(OpKind::Add, c3, shortcut);
    b.unary(OpKind::Relu, sum)
}

/// Build the training graph (image → logits → cross-entropy loss).
///
/// Tensor-parallel layout: no task is tagged, so the split rule
/// (`rannc_graph::split`) replicates every task. Convolutions have no
/// column/row pairing here, and the classifier's logits feed the loss,
/// which reads them whole.
pub fn resnet_graph(cfg: &ResNetConfig) -> TaskGraph {
    let wf = cfg.width_factor;
    let mut b = GraphBuilder::new(cfg.name());
    b.set_scope("stem");
    let img = b.input("image", [3, cfg.image_size, cfg.image_size], DType::F32);
    let label = b.input("label", [1], DType::I64);

    // stem
    let stem_ch = 64 * wf;
    let x = b.conv2d("stem.conv", img, stem_ch, (7, 7), (2, 2), (3, 3));
    let x = b.batch_norm("stem.bn", x);
    let x = b.unary(OpKind::Relu, x);
    let mut x = b.max_pool(x, (3, 3), (2, 2));

    // four stages of bottlenecks
    let mut in_ch = stem_ch;
    let blocks = cfg.depth.blocks();
    for (stage, &nblocks) in blocks.iter().enumerate() {
        let width = 64 * (1 << stage) * wf;
        for blk in 0..nblocks {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            b.set_scope(format!("stage{}.block{}", stage + 1, blk));
            x = bottleneck(
                &mut b,
                &format!("stage{}.block{}", stage + 1, blk),
                x,
                in_ch,
                width,
                stride,
            );
            in_ch = 4 * width;
        }
    }

    // head
    b.set_scope("head");
    let pooled = b.global_avg_pool(x);
    let logits = b.linear("fc", pooled, in_ch, cfg.classes);
    let loss = b.cross_entropy(logits, label);
    b.output(loss);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(depth: ResNetDepth, wf: usize) -> usize {
        resnet_graph(&ResNetConfig::new(depth, wf)).param_count()
    }

    #[test]
    fn tiny_builds() {
        let g = resnet_graph(&ResNetConfig::tiny());
        g.validate().unwrap();
        assert!(g.num_tasks() > 100);
    }

    #[test]
    fn resnet152_base_is_60m() {
        // Paper: "The original ResNet has 60 million parameters" (R152).
        let n = params(ResNetDepth::R152, 1);
        assert!((55_000_000..65_000_000).contains(&n), "R152 params = {n}");
    }

    #[test]
    fn resnet152x8_is_3_7b() {
        // Paper: "The largest model used in this experiment (ResNet152x8)
        // has 3.7 billion parameters."
        let n = params(ResNetDepth::R152, 8);
        assert!(
            (3_550_000_000..3_900_000_000).contains(&n),
            "R152x8 params = {n}"
        );
    }

    #[test]
    fn depth_ordering() {
        assert!(params(ResNetDepth::R50, 1) < params(ResNetDepth::R101, 1));
        assert!(params(ResNetDepth::R101, 1) < params(ResNetDepth::R152, 1));
    }

    #[test]
    fn width_scales_quadratically() {
        let p1 = params(ResNetDepth::R50, 1);
        let p2 = params(ResNetDepth::R50, 2);
        let ratio = p2 as f64 / p1 as f64;
        assert!((3.0..4.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn spatial_dims_shrink_to_7x7() {
        // 224 -> stem/2 -> pool/2 -> stage2/2 -> stage3/2 -> stage4/2 = 7
        let g = resnet_graph(&ResNetConfig::new(ResNetDepth::R50, 1));
        let gap = g
            .tasks()
            .find(|(_, t)| t.op == OpKind::GlobalAvgPool)
            .expect("GAP task");
        let in_shape = &g.value(gap.1.inputs[0]).shape;
        assert_eq!(in_shape.dims()[1], 7);
        assert_eq!(in_shape.dims()[2], 7);
    }

    #[test]
    fn names() {
        assert_eq!(
            ResNetConfig::new(ResNetDepth::R152, 8).name(),
            "resnet152x8"
        );
    }
}
