//! The threaded pipeline-parallel trainer.
//!
//! Each stage runs on its own OS thread; activations and gradients travel
//! through bounded channels, exactly mirroring Fig. 1 of the paper:
//! micro-batches flow forward through the stages, then their gradients
//! flow back, then (synchronous mode) every stage applies one optimizer
//! step — so the parameters every micro-batch saw are identical and the
//! run is **bit-equivalent** to single-device training with gradient
//! accumulation.
//!
//! Asynchronous mode applies each micro-batch's gradient the moment its
//! backward completes, so micro-batches that were forwarded earlier are
//! backpropagated against *newer* weights — PipeDream-style parameter
//! staleness, without weight stashing.
//!
//! Every channel operation carries a timeout and every failure path is a
//! typed [`TrainError`]: a dead or hung stage unwinds the whole pipeline
//! within one timeout instead of deadlocking it.

use crate::channel::{bounded, RecvError, SendError, Sender};
use crate::data::Dataset;
use crate::error::TrainError;
use crate::stage::Stage;
use rannc_tensor::{ops, Matrix};
use std::time::{Duration, Instant};

/// Update discipline of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Staleness-free: accumulate gradients, step after the full
    /// mini-batch (what RaNNC/GPipe do).
    Synchronous,
    /// Apply each micro-batch's gradients immediately (what asynchronous
    /// pipelines risk).
    Asynchronous,
}

/// Training-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Training iterations (mini-batches).
    pub iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Micro-batches per mini-batch (must divide `batch_size`).
    pub microbatches: usize,
}

impl TrainConfig {
    fn validate(&self, n_stages: usize) -> Result<(), TrainError> {
        if n_stages == 0 {
            return Err(TrainError::InvalidConfig("no stages".into()));
        }
        if self.microbatches == 0 {
            return Err(TrainError::InvalidConfig("zero micro-batches".into()));
        }
        if self.batch_size == 0 {
            return Err(TrainError::InvalidConfig("zero batch size".into()));
        }
        if !self.batch_size.is_multiple_of(self.microbatches) {
            return Err(TrainError::InvalidConfig(format!(
                "batch size {} not divisible by {} micro-batches",
                self.batch_size, self.microbatches
            )));
        }
        Ok(())
    }
}

enum Msg {
    Fwd(usize, Matrix),
    Bwd(usize, Matrix),
}

/// How a stage thread died (stage index is its position in the results).
enum StageFail {
    /// A channel operation timed out (hung neighbour).
    Stalled,
    /// A neighbour's endpoint dropped (cascade from another failure).
    Disconnected,
}

/// Timeout of every channel operation: how long a stage or the supervisor
/// waits on a hung neighbour before the run fails.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// Train `stages` as a thread-per-stage pipeline over `data`.
///
/// Returns the per-iteration mean losses and the trained stages (so
/// callers can inspect final weights). Any stage failure — panic, hang,
/// or dropped channel — surfaces as a typed [`TrainError`] instead of
/// poisoning the thread scope.
pub fn train_pipeline(
    stages: Vec<Stage>,
    data: &Dataset,
    cfg: &TrainConfig,
    mode: Mode,
) -> Result<(Vec<f32>, Vec<Stage>), TrainError> {
    cfg.validate(stages.len())?;
    let _run = rannc_obs::trace::span("run", "train")
        .arg_i("iterations", cfg.iterations as i64)
        .arg_i("stages", stages.len() as i64);
    let n_stages = stages.len();
    let micro = cfg.batch_size / cfg.microbatches;

    // micro-batch inputs (driver side) and labels (last stage side),
    // precomputed per iteration
    let mut labels_per_iter: Vec<Vec<Vec<usize>>> = Vec::with_capacity(cfg.iterations);
    let mut inputs_per_iter: Vec<Vec<Matrix>> = Vec::with_capacity(cfg.iterations);
    for it in 0..cfg.iterations {
        let (x, y) = data.batch(it, cfg.batch_size);
        let mut xs = Vec::with_capacity(cfg.microbatches);
        let mut ys = Vec::with_capacity(cfg.microbatches);
        for m in 0..cfg.microbatches {
            xs.push(x.rows_slice(m * micro, (m + 1) * micro));
            ys.push(y[m * micro..(m + 1) * micro].to_vec());
        }
        inputs_per_iter.push(xs);
        labels_per_iter.push(ys);
    }
    let labels_per_iter = &labels_per_iter;

    // channels: fwd[s] feeds stage s; bwd[s] feeds stage s (from s+1)
    let cap = cfg.microbatches;
    let mut fwd_tx = Vec::with_capacity(n_stages);
    let mut fwd_rx = Vec::with_capacity(n_stages);
    let mut bwd_tx = Vec::with_capacity(n_stages);
    let mut bwd_rx = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let (t, r) = bounded::<Msg>(cap);
        fwd_tx.push(Some(t));
        fwd_rx.push(Some(r));
        let (t, r) = bounded::<Msg>(cap);
        bwd_tx.push(Some(t));
        bwd_rx.push(Some(r));
    }
    let (loss_tx, loss_rx) = bounded::<f32>(cap);
    let mut loss_tx = Some(loss_tx);

    type StageOutcome = Result<Stage, StageFail>;
    let (outcomes, losses_flat, driver_err) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_stages);
        for (s, mut stage) in stages.into_iter().enumerate() {
            let my_fwd = fwd_rx[s].take().expect("fwd receiver");
            let my_bwd = bwd_rx[s].take().expect("bwd receiver");
            let next_fwd = (s + 1 < n_stages).then(|| fwd_tx[s + 1].as_ref().unwrap().clone());
            let prev_bwd = (s > 0).then(|| bwd_tx[s - 1].as_ref().unwrap().clone());
            let my_loss = (s + 1 == n_stages).then(|| loss_tx.as_ref().unwrap().clone());
            let cfg = *cfg;
            handles.push(scope.spawn(move || -> StageOutcome {
                let send = |tx: &Sender<Msg>, msg: Msg| -> Result<(), StageFail> {
                    match tx.send_timeout(msg, DEFAULT_TIMEOUT) {
                        Ok(()) => Ok(()),
                        Err(SendError::Timeout(_)) => Err(StageFail::Stalled),
                        Err(SendError::Disconnected(_)) => Err(StageFail::Disconnected),
                    }
                };
                for labels in labels_per_iter {
                    // ---- forward phase ----
                    for m in 0..cfg.microbatches {
                        let msg = match my_fwd.recv_timeout(DEFAULT_TIMEOUT) {
                            Ok(msg) => msg,
                            Err(RecvError::Timeout) => return Err(StageFail::Stalled),
                            Err(RecvError::Disconnected) => return Err(StageFail::Disconnected),
                        };
                        let Msg::Fwd(mb, x) = msg else {
                            return Err(StageFail::Disconnected);
                        };
                        debug_assert_eq!(mb, m);
                        let y = stage.forward(mb, x);
                        if let Some(next) = &next_fwd {
                            send(next, Msg::Fwd(mb, y))?;
                        } else {
                            // last stage: loss + gradient, start backward
                            let (loss, dlogits) = ops::softmax_cross_entropy(&y, &labels[mb]);
                            if let Some(loss_tx) = &my_loss {
                                match loss_tx.send_timeout(loss, DEFAULT_TIMEOUT) {
                                    Ok(()) => {}
                                    Err(SendError::Timeout(_)) => return Err(StageFail::Stalled),
                                    Err(SendError::Disconnected(_)) => {
                                        return Err(StageFail::Disconnected)
                                    }
                                }
                            }
                            let dy = stage.backward(mb, dlogits);
                            if mode == Mode::Asynchronous {
                                stage.step_immediate(mb);
                            }
                            if let Some(prev) = &prev_bwd {
                                send(prev, Msg::Bwd(mb, dy))?;
                            }
                        }
                    }
                    // ---- backward phase (non-last stages) ----
                    if next_fwd.is_some() {
                        for _ in 0..cfg.microbatches {
                            let msg = match my_bwd.recv_timeout(DEFAULT_TIMEOUT) {
                                Ok(msg) => msg,
                                Err(RecvError::Timeout) => return Err(StageFail::Stalled),
                                Err(RecvError::Disconnected) => {
                                    return Err(StageFail::Disconnected)
                                }
                            };
                            let Msg::Bwd(mb, g) = msg else {
                                return Err(StageFail::Disconnected);
                            };
                            let dy = stage.backward(mb, g);
                            if mode == Mode::Asynchronous {
                                stage.step_immediate(mb);
                            }
                            if let Some(prev) = &prev_bwd {
                                send(prev, Msg::Bwd(mb, dy))?;
                            }
                        }
                    }
                    // ---- synchronous update ----
                    if mode == Mode::Synchronous {
                        stage.step();
                    }
                }
                Ok(stage)
            }));
        }
        // the supervisor keeps only its feed; dropping every other
        // original sender arms the disconnect cascade
        let feed = fwd_tx[0].take().expect("feed");
        for tx in fwd_tx.iter_mut().skip(1) {
            *tx = None;
        }
        for tx in bwd_tx.iter_mut() {
            *tx = None;
        }
        loss_tx = None;

        // supervisor loop: feed one iteration, collect its losses — any
        // stage death or hang surfaces here within one timeout
        let mut losses_flat: Vec<f32> = Vec::with_capacity(cfg.iterations * cfg.microbatches);
        let mut driver_err: Option<TrainError> = None;
        let step_hist = rannc_obs::metrics::histogram("train.step_seconds");
        let step_count = rannc_obs::metrics::counter("train.iterations");
        'drive: for (it, xs) in inputs_per_iter.into_iter().enumerate() {
            let step_started = Instant::now();
            for (m, x) in xs.into_iter().enumerate() {
                if feed.send_timeout(Msg::Fwd(m, x), DEFAULT_TIMEOUT).is_err() {
                    driver_err = Some(TrainError::SupervisorTimeout { at_iter: it });
                    break 'drive;
                }
            }
            for _ in 0..cfg.microbatches {
                match loss_rx.recv_timeout(DEFAULT_TIMEOUT) {
                    Ok(loss) => losses_flat.push(loss),
                    Err(_) => {
                        driver_err = Some(TrainError::SupervisorTimeout { at_iter: it });
                        break 'drive;
                    }
                }
            }
            step_hist.observe(step_started.elapsed().as_secs_f64());
            step_count.inc();
        }
        // unwind: dropping the feed (and later the loss receiver) lets
        // surviving threads observe disconnects and exit
        drop(feed);
        let outcomes: Vec<Result<StageOutcome, ()>> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| ()))
            .collect();
        (outcomes, losses_flat, driver_err)
    });

    // classify the run: panics dominate, then the supervisor's own
    // timeout, then secondary stalls/disconnects
    let mut panicked: Option<usize> = None;
    let mut stalled: Option<usize> = None;
    for (s, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Err(()) => panicked = panicked.or(Some(s)),
            Ok(Err(StageFail::Stalled)) | Ok(Err(StageFail::Disconnected)) => {
                stalled = stalled.or(Some(s))
            }
            Ok(Ok(_)) => {}
        }
    }
    if let Some(stage) = panicked {
        return Err(TrainError::StagePanicked { stage });
    }
    if let Some(err) = driver_err {
        return Err(err);
    }
    if let Some(stage) = stalled {
        return Err(TrainError::StageStalled { stage });
    }

    let trained: Vec<Stage> = outcomes
        .into_iter()
        .map(|o| match o {
            Ok(Ok(stage)) => stage,
            _ => unreachable!("failures classified above"),
        })
        .collect();
    debug_assert_eq!(losses_flat.len(), cfg.iterations * cfg.microbatches);
    let losses = losses_flat
        .chunks(cfg.microbatches)
        .map(|c| c.iter().sum::<f32>() / c.len() as f32)
        .collect();
    Ok((losses, trained))
}

/// Single-device reference: identical math to the synchronous pipeline
/// (same micro-batch split, same gradient summation order).
pub fn train_single(stage: &mut Stage, data: &Dataset, cfg: &TrainConfig, mode: Mode) -> Vec<f32> {
    let micro = cfg.batch_size / cfg.microbatches;
    let mut losses = Vec::with_capacity(cfg.iterations);
    for it in 0..cfg.iterations {
        let (x, y) = data.batch(it, cfg.batch_size);
        let mut iter_loss = 0.0f32;
        for m in 0..cfg.microbatches {
            let xm = x.rows_slice(m * micro, (m + 1) * micro);
            let ym = &y[m * micro..(m + 1) * micro];
            let logits = stage.forward(m, xm);
            let (loss, dlogits) = ops::softmax_cross_entropy(&logits, ym);
            iter_loss += loss;
            let _ = stage.backward(m, dlogits);
            if mode == Mode::Asynchronous {
                stage.step_immediate(m);
            }
        }
        if mode == Mode::Synchronous {
            stage.step();
        }
        losses.push(iter_loss / cfg.microbatches as f32);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{build_mlp, split_into_stages};

    fn cfg() -> TrainConfig {
        TrainConfig {
            iterations: 10,
            batch_size: 16,
            microbatches: 4,
        }
    }

    #[test]
    fn sync_pipeline_matches_single_device_bitwise() {
        // The paper's loss validation, strengthened: identical losses.
        let data = Dataset::synthetic(64, 8, 4, 11);
        let dims = [8usize, 32, 32, 32, 4];

        let mut single = Stage::new(build_mlp(&dims, 5), 0.01);
        let ref_losses = train_single(&mut single, &data, &cfg(), Mode::Synchronous);

        for n_stages in [1usize, 2, 3, 4] {
            let stages = split_into_stages(build_mlp(&dims, 5), n_stages, 0.01);
            let (losses, _) = train_pipeline(stages, &data, &cfg(), Mode::Synchronous).unwrap();
            assert_eq!(
                losses, ref_losses,
                "sync pipeline with {n_stages} stages diverged from reference"
            );
        }
    }

    #[test]
    fn async_pipeline_diverges_from_reference() {
        let data = Dataset::synthetic(64, 8, 4, 11);
        let dims = [8usize, 32, 32, 32, 4];
        let mut single = Stage::new(build_mlp(&dims, 5), 0.01);
        let ref_losses = train_single(&mut single, &data, &cfg(), Mode::Synchronous);
        let stages = split_into_stages(build_mlp(&dims, 5), 3, 0.01);
        let (losses, _) = train_pipeline(stages, &data, &cfg(), Mode::Asynchronous).unwrap();
        let max_diff = losses
            .iter()
            .zip(&ref_losses)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff > 1e-4, "async should drift, max diff = {max_diff}");
    }

    #[test]
    fn training_reduces_loss() {
        let data = Dataset::synthetic(128, 8, 4, 3);
        let stages = split_into_stages(build_mlp(&[8, 32, 32, 4], 9), 2, 0.01);
        let c = TrainConfig {
            iterations: 60,
            batch_size: 32,
            microbatches: 4,
        };
        let (losses, _) = train_pipeline(stages, &data, &c, Mode::Synchronous).unwrap();
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(tail < head * 0.8, "no learning: head {head} tail {tail}");
    }

    #[test]
    fn final_weights_match_between_single_and_pipeline() {
        let data = Dataset::synthetic(64, 8, 4, 11);
        let dims = [8usize, 16, 16, 4];
        let mut single = Stage::new(build_mlp(&dims, 5), 0.01);
        let _ = train_single(&mut single, &data, &cfg(), Mode::Synchronous);
        let stages = split_into_stages(build_mlp(&dims, 5), 2, 0.01);
        let (_, trained) = train_pipeline(stages, &data, &cfg(), Mode::Synchronous).unwrap();
        // concatenate trained pipeline weights in layer order and compare
        let mut single_linears = Vec::new();
        for l in single.layers() {
            if let crate::layer::Layer::Linear { w, .. } = l {
                single_linears.push(w.clone());
            }
        }
        let mut pipe_linears = Vec::new();
        for st in &trained {
            for l in st.layers() {
                if let crate::layer::Layer::Linear { w, .. } = l {
                    pipe_linears.push(w.clone());
                }
            }
        }
        assert_eq!(single_linears.len(), pipe_linears.len());
        for (a, b) in single_linears.iter().zip(&pipe_linears) {
            assert_eq!(a.data, b.data, "weights diverged");
        }
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let data = Dataset::synthetic(16, 8, 4, 1);
        let stages = split_into_stages(build_mlp(&[8, 16, 4], 1), 2, 0.01);
        let bad = TrainConfig {
            iterations: 2,
            batch_size: 10,
            microbatches: 4, // does not divide 10
        };
        match train_pipeline(stages, &data, &bad, Mode::Synchronous) {
            Err(TrainError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let empty: Vec<Stage> = Vec::new();
        match train_pipeline(empty, &data, &cfg(), Mode::Synchronous) {
            Err(TrainError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn stage_panic_is_typed_and_unwinds_by_disconnect() {
        // stage 1 expects 5 input features but stage 0 emits 16, so its
        // first forward panics in `ops::matmul`; the neighbours must see
        // the dropped channels and exit long before any channel timeout
        let data = Dataset::synthetic(64, 8, 4, 11);
        let stages = vec![
            Stage::new(build_mlp(&[8, 16], 5), 0.01),
            Stage::new(build_mlp(&[5, 4], 6), 0.01),
            Stage::new(build_mlp(&[4, 4], 7), 0.01),
        ];
        let started = Instant::now();
        let err = train_pipeline(stages, &data, &cfg(), Mode::Synchronous).unwrap_err();
        assert_eq!(err, TrainError::StagePanicked { stage: 1 });
        assert!(
            started.elapsed() < DEFAULT_TIMEOUT / 2,
            "the panic surfaced through a timeout, not the disconnect cascade"
        );
    }
}
