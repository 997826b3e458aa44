//! Enlarged BERT pre-training graphs.
//!
//! Mirrors the NVIDIA BERT pre-training description the paper uses
//! unmodified (§IV-A "Models"): token/position/type embeddings, `L`
//! post-LN Transformer encoder layers, a masked-LM head whose decoder
//! multiplies by the (tied, transposed) embedding table, and an NSP head.
//!
//! Two structural properties matter to the partitioner and are preserved:
//!
//! * the MLM decoder performs a `[seq, hidden] × [hidden, vocab]` matmul —
//!   for BERT-Base-scale models this one task is ~40 % of total compute
//!   (§II-C), which is why block-level partitioning must split the "last
//!   layer";
//! * the tied-decoder transpose of the embedding table is a *constant
//!   task* (its input is a parameter), exercising the constant-folding
//!   rule of atomic-level partitioning (§III-A, Fig. 2's transpose tasks).

use rannc_graph::{DType, GraphBuilder, OpKind, TaskGraph};

/// Hyper-parameters of an (enlarged) BERT model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BertConfig {
    /// Hidden size (1024 for BERT-Large; the paper also uses 1536, 2048).
    pub hidden: usize,
    /// Number of encoder layers (24 … 256 in the paper).
    pub layers: usize,
    /// Attention heads (hidden / 64 by convention).
    pub heads: usize,
    /// FFN intermediate size (4 × hidden by convention).
    pub intermediate: usize,
    /// WordPiece vocabulary size (30522 for the NVIDIA description).
    pub vocab: usize,
    /// Maximum sequence length (512 in all the paper's experiments).
    pub seq_len: usize,
}

impl BertConfig {
    /// BERT-Large: hidden 1024, 24 layers — 340 M parameters.
    pub fn large() -> Self {
        BertConfig::enlarged(1024, 24)
    }

    /// An enlarged BERT in the paper's grid: given hidden size and layer
    /// count, remaining dims follow convention (heads = hidden/64,
    /// intermediate = 4·hidden, vocab 30522, seq 512).
    pub fn enlarged(hidden: usize, layers: usize) -> Self {
        BertConfig {
            hidden,
            layers,
            heads: hidden / 64,
            intermediate: 4 * hidden,
            vocab: 30522,
            seq_len: 512,
        }
    }

    /// A tiny config for unit tests (fast to build and partition).
    pub fn tiny() -> Self {
        BertConfig {
            hidden: 64,
            layers: 2,
            heads: 4,
            intermediate: 128,
            vocab: 1000,
            seq_len: 32,
        }
    }

    /// Closed-form parameter count (must equal the built graph's count;
    /// asserted in tests).
    pub fn param_count(&self) -> usize {
        let h = self.hidden;
        let i = self.intermediate;
        // embeddings: word + position + token-type + embedding LN
        let emb = self.vocab * h + self.seq_len * h + 2 * h + 2 * h;
        // per layer: QKV (+bias), attn out (+bias), 2 LN, FFN in/out (+bias)
        let per_layer = 3 * (h * h + h) + (h * h + h) + 2 * (2 * h) + (h * i + i) + (i * h + h);
        // MLM head: transform dense + LN + decoder bias (decoder weight tied)
        let mlm = (h * h + h) + 2 * h + self.vocab;
        // NSP head: pooler dense + classifier
        let nsp = (h * h + h) + (h * 2 + 2);
        emb + self.layers * per_layer + mlm + nsp
    }

    /// Model name used in reports, e.g. `bert[h=1024,l=24]`.
    pub fn name(&self) -> String {
        format!("bert[h={},l={}]", self.hidden, self.layers)
    }
}

/// Build the pre-training task graph (MLM + NSP losses as outputs).
pub fn bert_graph(cfg: &BertConfig) -> TaskGraph {
    let h = cfg.hidden;
    let seq = cfg.seq_len;
    let heads = cfg.heads;
    let dh = h / heads;
    assert_eq!(heads * dh, h, "hidden must be divisible by heads");

    let mut b = GraphBuilder::new(cfg.name());
    b.set_scope("embeddings");

    // ---- inputs -------------------------------------------------------
    let input_ids = b.input("input_ids", [seq], DType::I64);
    let token_type_ids = b.input("token_type_ids", [seq], DType::I64);
    let mlm_labels = b.input("mlm_labels", [seq], DType::I64);
    let nsp_label = b.input("nsp_label", [1], DType::I64);
    // additive attention mask, precomputed host-side like the NVIDIA code
    let attn_mask = b.input("attention_mask", [1, seq, seq], DType::F32);

    // ---- embeddings ---------------------------------------------------
    let word_table = b.param("embeddings.word.table", [cfg.vocab, h]);
    let word_emb = b.op(
        OpKind::Embedding,
        "embeddings.word",
        &[input_ids, word_table],
        [seq, h],
        DType::F32,
    );
    // position embeddings: slice of the table is a CONSTANT task (depends
    // only on a parameter), folded by atomic-level partitioning.
    let pos_table = b.param("embeddings.position.table", [cfg.seq_len, h]);
    let pos_emb = b.op(
        OpKind::Slice,
        "embeddings.position.slice",
        &[pos_table],
        [seq, h],
        DType::F32,
    );
    let type_table = b.param("embeddings.token_type.table", [2, h]);
    let type_emb = b.op(
        OpKind::Embedding,
        "embeddings.token_type",
        &[token_type_ids, type_table],
        [seq, h],
        DType::F32,
    );
    let e = b.binary(OpKind::Add, word_emb, pos_emb);
    let e = b.binary(OpKind::Add, e, type_emb);
    let e = b.layer_norm("embeddings.ln", e, h);
    let mut hidden_states = b.dropout(e);

    // ---- encoder layers -------------------------------------------------
    for l in 0..cfg.layers {
        let p = format!("encoder.layer{l}");
        b.set_scope(p.clone());
        let x = hidden_states;

        // self-attention; tensor-parallel layout as in Megatron-LM:
        // q/k/v and ffn.in column-split, attn.out and ffn.out row-split
        let q = b.linear_column(&format!("{p}.attn.q"), x, h, h);
        let k = b.linear_column(&format!("{p}.attn.k"), x, h, h);
        let v = b.linear_column(&format!("{p}.attn.v"), x, h, h);
        let qh = b.transpose(q, [heads, seq, dh]);
        let kh = b.transpose(k, [heads, dh, seq]);
        let vh = b.transpose(v, [heads, seq, dh]);
        let scores = b.bmm(qh, kh); // [heads, seq, seq]
        let scale = b.constant(&format!("{p}.attn.scale"), [1], DType::F32);
        let scores = b.binary(OpKind::Mul, scores, scale);
        let scores = b.binary(OpKind::Add, scores, attn_mask);
        let probs = b.softmax(scores);
        let probs = b.dropout(probs);
        let ctx = b.bmm(probs, vh); // [heads, seq, dh]
        let ctx = b.transpose(ctx, [seq, h]);
        let attn_out = b.linear_row(&format!("{p}.attn.out"), ctx, h, h);
        let attn_out = b.dropout(attn_out);
        let x = b.binary(OpKind::Add, attn_out, x);
        let x = b.layer_norm(&format!("{p}.attn.ln"), x, h);

        // feed-forward
        let ff = b.linear_column(&format!("{p}.ffn.in"), x, h, cfg.intermediate);
        let ff = b.unary(OpKind::Gelu, ff);
        let ff = b.linear_row(&format!("{p}.ffn.out"), ff, cfg.intermediate, h);
        let ff = b.dropout(ff);
        let x2 = b.binary(OpKind::Add, ff, x);
        hidden_states = b.layer_norm(&format!("{p}.ffn.ln"), x2, h);
    }

    // ---- masked-LM head --------------------------------------------------
    b.set_scope("head");
    let t = b.linear("mlm.transform", hidden_states, h, h);
    let t = b.unary(OpKind::Gelu, t);
    let t = b.layer_norm("mlm.ln", t, h);
    // tied decoder: transpose of the embedding table — a constant task
    let dec_w = b.transpose(word_table, [h, cfg.vocab]);
    let logits = b.matmul(t, dec_w); // [seq, vocab] — the ~40 % matmul
    let dec_bias = b.param("mlm.decoder.bias", [cfg.vocab]);
    let logits = b.binary(OpKind::Bias, logits, dec_bias);
    let mlm_loss = b.cross_entropy(logits, mlm_labels);
    b.output(mlm_loss);

    // ---- next-sentence head ----------------------------------------------
    let cls = b.op(
        OpKind::Slice,
        "pooler.cls",
        &[hidden_states],
        [1, h],
        DType::F32,
    );
    let pooled = b.linear("pooler.dense", cls, h, h);
    let pooled = b.unary(OpKind::Tanh, pooled);
    let nsp_logits = b.linear("nsp.classifier", pooled, h, 2);
    let nsp_loss = b.cross_entropy(nsp_logits, nsp_label);
    b.output(nsp_loss);

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_builds_and_validates() {
        let g = bert_graph(&BertConfig::tiny());
        assert!(g.num_tasks() > 30);
        g.validate().unwrap();
    }

    #[test]
    fn param_count_formula_matches_graph() {
        for cfg in [BertConfig::tiny(), BertConfig::enlarged(128, 3)] {
            let g = bert_graph(&cfg);
            assert_eq!(g.param_count(), cfg.param_count(), "{}", cfg.name());
        }
    }

    #[test]
    fn bert_large_is_340m() {
        // Paper: "The original BERT model (BERT-Large) … has 340 million
        // parameters."
        let n = BertConfig::large().param_count();
        assert!(
            (335_000_000..345_000_000).contains(&n),
            "BERT-Large params = {n}"
        );
    }

    #[test]
    fn largest_model_is_12_9b() {
        // Paper: "The largest model we tried (256 hidden layers of size
        // 2048) has 12.9 billion parameters."
        let n = BertConfig::enlarged(2048, 256).param_count();
        assert!(
            (12_700_000_000..13_100_000_000).contains(&n),
            "256x2048 params = {n}"
        );
    }

    #[test]
    fn enlarged_1_7b_scale_exists_in_grid() {
        // §IV-B validates an "enlarged BERT model (1.7 billion
        // parameters)"; the nearest grid point of Fig. 4 is hidden 1024
        // with 144 layers (~1.85B).
        let n = BertConfig::enlarged(1024, 144).param_count();
        assert!(
            (1_600_000_000..2_000_000_000).contains(&n),
            "1024x144 params = {n}"
        );
    }

    #[test]
    fn task_count_scales_with_layers() {
        let g24 = bert_graph(&BertConfig::enlarged(128, 4));
        let g48 = bert_graph(&BertConfig::enlarged(128, 8));
        let per_layer = (g48.num_tasks() - g24.num_tasks()) / 4;
        assert!(per_layer > 20, "per-layer tasks = {per_layer}");
    }

    #[test]
    fn graph_has_constant_transpose_task() {
        // the tied decoder transpose reads only a Param value
        let g = bert_graph(&BertConfig::tiny());
        let has_const_transpose = g.tasks().any(|(_, t)| {
            t.op == OpKind::Transpose && t.inputs.iter().all(|&v| g.value(v).kind.is_static())
        });
        assert!(has_const_transpose);
    }

    #[test]
    fn outputs_are_two_losses() {
        let g = bert_graph(&BertConfig::tiny());
        assert_eq!(g.outputs().len(), 2);
        for &o in g.outputs() {
            assert_eq!(g.value(o).shape.rank(), 0);
        }
    }
}
