//! T5-style encoder–decoder graphs.
//!
//! The paper's introduction motivates RaNNC with T5 (11 billion
//! parameters). Beyond scale, the encoder–decoder architecture matters to
//! a *graph* partitioner structurally: the decoder's cross-attention
//! consumes the encoder's final hidden states, so the task graph is not a
//! chain — every decoder layer has an incoming edge from the encoder's
//! output. Stage-level partitioning must still produce convex stages
//! (paper §III-B), which this family exercises far harder than BERT.

use rannc_graph::{DType, GraphBuilder, OpKind, TaskGraph, ValueId};

/// Hyper-parameters of a T5-style model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T5Config {
    /// Hidden size (`d_model`).
    pub hidden: usize,
    /// Encoder layers.
    pub encoder_layers: usize,
    /// Decoder layers.
    pub decoder_layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Total attention inner width (`heads × d_kv`). T5 decouples this
    /// from `d_model`: T5-11B uses 128 heads × 128 = 16384 over a
    /// `d_model` of only 1024 — most of its 11B parameters live here and
    /// in the 65536-wide FFN.
    pub kv_inner: usize,
    /// FFN intermediate size.
    pub intermediate: usize,
    /// SentencePiece vocabulary (32128 for T5).
    pub vocab: usize,
    /// Input sequence length.
    pub src_len: usize,
    /// Output sequence length.
    pub tgt_len: usize,
}

impl T5Config {
    /// T5-Base-like: hidden 768, 12+12 layers (~220M params).
    pub fn base() -> Self {
        T5Config {
            hidden: 768,
            encoder_layers: 12,
            decoder_layers: 12,
            heads: 12,
            kv_inner: 768,
            intermediate: 3072,
            vocab: 32128,
            src_len: 512,
            tgt_len: 512,
        }
    }

    /// T5-11B-like: hidden 1024 with the famous 65536-wide FFN.
    pub fn xxl() -> Self {
        T5Config {
            hidden: 1024,
            encoder_layers: 24,
            decoder_layers: 24,
            heads: 128,
            kv_inner: 16384,
            intermediate: 65536,
            vocab: 32128,
            src_len: 512,
            tgt_len: 512,
        }
    }

    /// Tiny config for tests.
    pub fn tiny() -> Self {
        T5Config {
            hidden: 64,
            encoder_layers: 2,
            decoder_layers: 2,
            heads: 4,
            kv_inner: 64,
            intermediate: 128,
            vocab: 500,
            src_len: 16,
            tgt_len: 16,
        }
    }

    /// Model name for reports.
    pub fn name(&self) -> String {
        format!(
            "t5[h={},enc={},dec={}]",
            self.hidden, self.encoder_layers, self.decoder_layers
        )
    }
}

/// Multi-head attention sub-graph. `kv` lets cross-attention read the
/// encoder output; self-attention passes `x` twice.
#[allow(clippy::too_many_arguments)]
fn attention(
    b: &mut GraphBuilder,
    prefix: &str,
    x: ValueId,
    kv: ValueId,
    q_len: usize,
    kv_len: usize,
    hidden: usize,
    heads: usize,
    kv_inner: usize,
    mask: Option<ValueId>,
) -> ValueId {
    let dh = kv_inner / heads;
    // tensor-parallel layout as in Megatron-LM: q/k/v column-split, the
    // output projection row-split (the FFNs pair up the same way)
    let q = b.linear_column(&format!("{prefix}.q"), x, hidden, kv_inner);
    let k = b.linear_column(&format!("{prefix}.k"), kv, hidden, kv_inner);
    let v = b.linear_column(&format!("{prefix}.v"), kv, hidden, kv_inner);
    let qh = b.transpose(q, [heads, q_len, dh]);
    let kh = b.transpose(k, [heads, dh, kv_len]);
    let vh = b.transpose(v, [heads, kv_len, dh]);
    let scores = b.bmm(qh, kh);
    let scale = b.constant(&format!("{prefix}.scale"), [1], DType::F32);
    let scores = b.binary(OpKind::Mul, scores, scale);
    let scores = match mask {
        Some(m) => b.binary(OpKind::Add, scores, m),
        None => scores,
    };
    let probs = b.softmax(scores);
    let ctx = b.bmm(probs, vh);
    let ctx = b.transpose(ctx, [q_len, kv_inner]);
    b.linear_row(&format!("{prefix}.out"), ctx, kv_inner, hidden)
}

/// Build the sequence-to-sequence training graph.
pub fn t5_graph(cfg: &T5Config) -> TaskGraph {
    let h = cfg.hidden;
    let mut b = GraphBuilder::new(cfg.name());

    // ---- inputs ----
    b.set_scope("embeddings");
    let src_ids = b.input("src_ids", [cfg.src_len], DType::I64);
    let tgt_ids = b.input("tgt_ids", [cfg.tgt_len], DType::I64);
    let labels = b.input("labels", [cfg.tgt_len], DType::I64);
    let causal_mask = b.constant("causal_mask", [1, cfg.tgt_len, cfg.tgt_len], DType::F32);

    // shared token embedding (T5 ties encoder/decoder/vocab head)
    let table = b.param("shared.embedding", [cfg.vocab, h]);
    let mut enc = b.op(
        OpKind::Embedding,
        "encoder.embed",
        &[src_ids, table],
        [cfg.src_len, h],
        DType::F32,
    );

    // ---- encoder ----
    for l in 0..cfg.encoder_layers {
        let p = format!("encoder.layer{l}");
        b.set_scope(p.clone());
        let a_in = b.layer_norm(&format!("{p}.ln1"), enc, h);
        let attn = attention(
            &mut b,
            &format!("{p}.self_attn"),
            a_in,
            a_in,
            cfg.src_len,
            cfg.src_len,
            h,
            cfg.heads,
            cfg.kv_inner,
            None,
        );
        enc = b.binary(OpKind::Add, attn, enc);
        let m_in = b.layer_norm(&format!("{p}.ln2"), enc, h);
        let m = b.linear_column(&format!("{p}.ffn.in"), m_in, h, cfg.intermediate);
        let m = b.unary(OpKind::Relu, m);
        let m = b.linear_row(&format!("{p}.ffn.out"), m, cfg.intermediate, h);
        enc = b.binary(OpKind::Add, m, enc);
    }
    b.set_scope("encoder.final");
    let memory = b.layer_norm("encoder.final_ln", enc, h);

    // ---- decoder ----
    b.set_scope("decoder.embed");
    let mut dec = b.op(
        OpKind::Embedding,
        "decoder.embed",
        &[tgt_ids, table],
        [cfg.tgt_len, h],
        DType::F32,
    );
    for l in 0..cfg.decoder_layers {
        let p = format!("decoder.layer{l}");
        b.set_scope(p.clone());
        // causal self-attention
        let a_in = b.layer_norm(&format!("{p}.ln1"), dec, h);
        let attn = attention(
            &mut b,
            &format!("{p}.self_attn"),
            a_in,
            a_in,
            cfg.tgt_len,
            cfg.tgt_len,
            h,
            cfg.heads,
            cfg.kv_inner,
            Some(causal_mask),
        );
        dec = b.binary(OpKind::Add, attn, dec);
        // cross-attention over the encoder memory — the branching edge
        let c_in = b.layer_norm(&format!("{p}.ln2"), dec, h);
        let cross = attention(
            &mut b,
            &format!("{p}.cross_attn"),
            c_in,
            memory,
            cfg.tgt_len,
            cfg.src_len,
            h,
            cfg.heads,
            cfg.kv_inner,
            None,
        );
        dec = b.binary(OpKind::Add, cross, dec);
        // FFN
        let m_in = b.layer_norm(&format!("{p}.ln3"), dec, h);
        let m = b.linear_column(&format!("{p}.ffn.in"), m_in, h, cfg.intermediate);
        let m = b.unary(OpKind::Relu, m);
        let m = b.linear_row(&format!("{p}.ffn.out"), m, cfg.intermediate, h);
        dec = b.binary(OpKind::Add, m, dec);
    }

    // ---- LM head (tied) ----
    b.set_scope("head");
    let dec = b.layer_norm("decoder.final_ln", dec, h);
    let dec_w = b.transpose(table, [h, cfg.vocab]);
    let logits = b.matmul(dec, dec_w);
    let loss = b.cross_entropy(logits, labels);
    b.output(loss);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_builds_and_validates() {
        let g = t5_graph(&T5Config::tiny());
        g.validate().unwrap();
        assert_eq!(g.outputs().len(), 1);
    }

    #[test]
    fn t5_base_params_plausible() {
        // T5-Base is ~220M
        let g = t5_graph(&T5Config::base());
        let n = g.param_count();
        assert!((190_000_000..260_000_000).contains(&n), "params = {n}");
    }

    #[test]
    fn t5_xxl_is_11b_scale() {
        // T5-11B's parameter count is dominated by the 65536-wide FFNs
        let g = t5_graph(&T5Config::xxl());
        let n = g.param_count();
        assert!((9_000_000_000..13_500_000_000).contains(&n), "params = {n}");
    }

    #[test]
    fn decoder_layers_read_encoder_memory() {
        // the cross-attention edges make the graph non-chain: the encoder
        // final LN's output must have one consumer per decoder layer (K
        // and V projections read it)
        let g = t5_graph(&T5Config::tiny());
        let gamma = g
            .values()
            .find(|(_, v)| v.name == "encoder.final_ln.gamma")
            .unwrap()
            .0;
        let final_ln = g.value(gamma).consumers[0];
        let out = g.task(final_ln).outputs[0];
        let consumers = g.value(out).consumers.len();
        assert!(
            consumers >= 2 * 2, // 2 decoder layers × (K, V)
            "memory consumers = {consumers}"
        );
    }
}
