//! Decoder-only (GPT-style) Transformer graphs.
//!
//! Not evaluated in the paper's figures, but the introduction motivates
//! RaNNC with GPT-3-scale models, and Megatron-LM's transformer support
//! covers "BERT and GPT-2" — so the baseline comparisons in this
//! reproduction accept GPT graphs too. Structure: pre-LN decoder blocks
//! with causal attention and a tied LM head.

use rannc_graph::{DType, GraphBuilder, OpKind, TaskGraph};

/// Hyper-parameters of a GPT-style model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GptConfig {
    /// Hidden size.
    pub hidden: usize,
    /// Decoder layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Vocabulary (50257 for GPT-2's BPE).
    pub vocab: usize,
    /// Context length.
    pub seq_len: usize,
}

impl GptConfig {
    /// GPT-2 small-ish: hidden 768, 12 layers.
    pub fn gpt2_small() -> Self {
        GptConfig {
            hidden: 768,
            layers: 12,
            heads: 12,
            vocab: 50257,
            seq_len: 1024,
        }
    }

    /// Scaled config in the style of the paper's BERT grid.
    pub fn enlarged(hidden: usize, layers: usize) -> Self {
        GptConfig {
            hidden,
            layers,
            heads: hidden / 64,
            vocab: 50257,
            seq_len: 1024,
        }
    }

    /// Tiny config for tests.
    pub fn tiny() -> Self {
        GptConfig {
            hidden: 64,
            layers: 2,
            heads: 4,
            vocab: 500,
            seq_len: 16,
        }
    }

    /// Model name for reports.
    pub fn name(&self) -> String {
        format!("gpt[h={},l={}]", self.hidden, self.layers)
    }
}

/// Build the language-modelling training graph.
pub fn gpt_graph(cfg: &GptConfig) -> TaskGraph {
    let h = cfg.hidden;
    let seq = cfg.seq_len;
    let heads = cfg.heads;
    let dh = h / heads;
    assert_eq!(heads * dh, h, "hidden must be divisible by heads");

    let mut b = GraphBuilder::new(cfg.name());
    b.set_scope("embeddings");
    let input_ids = b.input("input_ids", [seq], DType::I64);
    let labels = b.input("labels", [seq], DType::I64);
    let causal_mask = b.constant("causal_mask", [1, seq, seq], DType::F32);

    let word_table = b.param("wte", [cfg.vocab, h]);
    let tok = b.op(
        OpKind::Embedding,
        "embed.tokens",
        &[input_ids, word_table],
        [seq, h],
        DType::F32,
    );
    let pos_table = b.param("wpe", [cfg.seq_len, h]);
    let pos = b.op(
        OpKind::Slice,
        "embed.pos.slice",
        &[pos_table],
        [seq, h],
        DType::F32,
    );
    let mut x = b.binary(OpKind::Add, tok, pos);

    for l in 0..cfg.layers {
        let p = format!("decoder.layer{l}");
        b.set_scope(p.clone());
        // pre-LN attention; tensor-parallel layout as in Megatron-LM:
        // q/k/v and mlp.in column-split, attn.out and mlp.out row-split
        let a_in = b.layer_norm(&format!("{p}.ln1"), x, h);
        let q = b.linear_column(&format!("{p}.attn.q"), a_in, h, h);
        let k = b.linear_column(&format!("{p}.attn.k"), a_in, h, h);
        let v = b.linear_column(&format!("{p}.attn.v"), a_in, h, h);
        let qh = b.transpose(q, [heads, seq, dh]);
        let kh = b.transpose(k, [heads, dh, seq]);
        let vh = b.transpose(v, [heads, seq, dh]);
        let scores = b.bmm(qh, kh);
        let scale = b.constant(&format!("{p}.attn.scale"), [1], DType::F32);
        let scores = b.binary(OpKind::Mul, scores, scale);
        let scores = b.binary(OpKind::Add, scores, causal_mask);
        let probs = b.softmax(scores);
        let ctx = b.bmm(probs, vh);
        let ctx = b.transpose(ctx, [seq, h]);
        let attn = b.linear_row(&format!("{p}.attn.out"), ctx, h, h);
        x = b.binary(OpKind::Add, attn, x);

        // pre-LN MLP
        let m_in = b.layer_norm(&format!("{p}.ln2"), x, h);
        let m = b.linear_column(&format!("{p}.mlp.in"), m_in, h, 4 * h);
        let m = b.unary(OpKind::Gelu, m);
        let m = b.linear_row(&format!("{p}.mlp.out"), m, 4 * h, h);
        x = b.binary(OpKind::Add, m, x);
    }

    b.set_scope("head");
    let x = b.layer_norm("final.ln", x, h);
    // tied LM head (constant transpose of the embedding table)
    let dec_w = b.transpose(word_table, [h, cfg.vocab]);
    let logits = b.matmul(x, dec_w);
    let loss = b.cross_entropy(logits, labels);
    b.output(loss);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_builds() {
        let g = gpt_graph(&GptConfig::tiny());
        g.validate().unwrap();
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn gpt2_small_params_plausible() {
        // GPT-2 small is ~124M; our graph without biases-tying details
        // should land in the same range (wte dominates at 38.6M).
        let g = gpt_graph(&GptConfig::gpt2_small());
        let n = g.param_count();
        assert!((110_000_000..140_000_000).contains(&n), "params = {n}");
    }

    #[test]
    fn per_layer_param_delta_is_12h2ish() {
        let h = 128;
        let a = gpt_graph(&GptConfig::enlarged(h, 2)).param_count();
        let b = gpt_graph(&GptConfig::enlarged(h, 4)).param_count();
        let per_layer = (b - a) / 2;
        let expected = 12 * h * h; // 4 attn matmuls + 8 mlp
        let tol = expected / 5;
        assert!(
            (expected - tol..expected + tol * 2).contains(&per_layer),
            "per-layer = {per_layer}, expected ~{expected}"
        );
    }
}
