//! Asynchronous 2BW pipeline model (PipeDream-2BW, Narayanan et al.).
//!
//! 2BW removes the synchronous flush: stages keep two weight versions
//! (double buffering) and never drain, so in steady state every stage is
//! continuously busy and the iteration time is set by the bottleneck stage
//! alone — no fill/drain bubble. The price is *parameter staleness*
//! (§II-B of the RaNNC paper): a micro-batch's forward and backward may
//! use different weight versions, which "often results in training that
//! diverges or degrades the quality of learning results". The numeric
//! consequences are demonstrated in `rannc-train`; here we only model
//! throughput.
//!
//! Steady-state model: per iteration each stage processes `MB`
//! micro-batches forward+backward back-to-back; gradient all-reduce
//! overlaps with the next iteration's compute (2BW's design), so only the
//! excess beyond compute shows up; the optimizer step is serialized.

use crate::spec::{PipelineSpec, SimResult};

/// Simulate one steady-state iteration of the 2BW asynchronous pipeline.
pub fn simulate_async_2bw(spec: &PipelineSpec) -> SimResult {
    let mb = spec.microbatches as f64;
    let mut bottleneck: f64 = 0.0;
    let mut busy = Vec::with_capacity(spec.stages.len());
    for (i, st) in spec.stages.iter().enumerate() {
        let comm = spec.comm_time(i);
        let t = mb * (st.fwd_time + st.bwd_time + comm);
        busy.push(mb * (st.fwd_time + st.bwd_time));
        bottleneck = bottleneck.max(t);
    }
    // all-reduce overlaps with compute; only the excess is exposed
    let tail = spec.tail();
    let exposed_allreduce = (tail.allreduce - bottleneck).max(0.0);
    let iteration = bottleneck + exposed_allreduce + tail.optimizer;
    SimResult::new(iteration, spec.batch_size, busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PipelineSpec, StageSpec};
    use crate::sync::{simulate_sync, SyncSchedule};
    use rannc_hw::{ClusterSpec, LinkSpec};

    fn spec(stages: usize, mb: usize) -> PipelineSpec {
        PipelineSpec {
            stages: (0..stages)
                .map(|_| StageSpec {
                    fwd_time: 0.01,
                    bwd_time: 0.02,
                    comm_to_next_bytes: 0,
                    grad_bytes: 0,
                    replicas: 1,
                    tensor_parallel: 1,
                })
                .collect(),
            microbatches: mb,
            replica_factor: 1,
            batch_size: 64,
            link: LinkSpec::nvlink(),
            cluster: ClusterSpec::v100_cluster(1),
            cost: rannc_cost::CostFactors::identity(),
        }
    }

    #[test]
    fn async_beats_sync_via_no_bubble() {
        // Same pipeline: async has no fill/drain bubble, so it must be
        // faster, and the gap must equal the bubble for equal stages.
        let s = spec(4, 8);
        let sync = simulate_sync(&s, SyncSchedule::FillDrain, false).result;
        let async_ = simulate_async_2bw(&s);
        assert!(async_.iteration_time < sync.iteration_time);
        // async time = MB*(f+b) for equal stages
        assert!((async_.iteration_time - 8.0 * 0.03).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_only() {
        let mut s = spec(3, 4);
        s.stages[2].fwd_time = 0.1;
        s.stages[2].bwd_time = 0.1;
        let r = simulate_async_2bw(&s);
        assert!((r.iteration_time - 4.0 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_one_for_uniform_stages() {
        let r = simulate_async_2bw(&spec(4, 8));
        assert!((r.utilization - 1.0).abs() < 1e-9);
    }
}
