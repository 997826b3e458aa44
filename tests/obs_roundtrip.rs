//! Observability round-trip (issue 4, satellite 3): partition a bundled
//! BERT model at 16 devices with tracing enabled, export the Chrome
//! trace and the metrics log, and verify that
//!
//! 1. the trace is valid JSON (our own parser, no JSON crate),
//! 2. slices are properly nested per lane (no end-before-start, no
//!    cross-lane overlap masquerading as parenthood),
//! 3. span counts match the metric counters — exactly one `dp` slice
//!    per grid cell of the search, the cells settled without a DP
//!    included,
//! 4. the simulator timeline renders as per-stage pipeline lanes.
//!
//! The obs globals are process-wide, so everything runs under
//! `trace::test_guard()` and counters are compared as deltas.

use rannc::obs::{check, json, metrics, sink, trace};
use rannc::prelude::*;

#[test]
fn chrome_trace_roundtrip_bert_16_devices() {
    let _serial = trace::test_guard();
    trace::reset();
    rannc::obs::set_enabled(true);

    let candidates_before = metrics::counter_value("planner.search.candidates");

    // BERT on 2 nodes x 8 GPUs = the acceptance configuration
    let graph = bert_graph(&BertConfig::enlarged(256, 4));
    let cluster = ClusterSpec::v100_cluster(2);
    let (plan, stats) = Rannc::new(PartitionConfig::new(64).with_k(8))
        .partition_with_stats(&graph, &cluster)
        .unwrap();

    // pipeline simulation with the timeline bridged into the trace
    let profiler = Profiler::new(&graph, cluster.device.clone(), ProfilerOptions::fp32());
    let spec = rannc::pipeline::spec_from_plan(&plan, &profiler, &cluster).unwrap();
    let out = simulate_sync(&spec, SyncSchedule::OneFOneB, true);
    let timeline = out.timeline.expect("timeline requested");
    let pipeline_slices =
        rannc::pipeline::record_timeline("pipeline", &timeline, plan.stages.len());
    assert_eq!(
        pipeline_slices,
        timeline.len(),
        "every event becomes a slice"
    );

    rannc::obs::set_enabled(false);

    // --- 1. the export is valid JSON ---
    let trace_json = sink::chrome_trace_json(&trace::snapshot_events());
    json::validate(&trace_json).expect("chrome trace is well-formed JSON");

    // --- 2. slices nest properly per lane ---
    let summary = check::check_trace(&trace_json).expect("trace passes structural checks");
    assert!(summary.slices > 0);

    // every planner phase of Algorithm 1/2 shows up as a named slice
    for phase in [
        "partition",
        "atomic",
        "blocks",
        "coarsen",
        "uncoarsen",
        "compact",
        "search",
        "sweep",
        "verify",
    ] {
        assert!(
            summary.count_of(phase) >= 1,
            "missing planner phase slice `{phase}`"
        );
    }

    // --- 3. span counts match metric counters ---
    let candidates = metrics::counter_value("planner.search.candidates") - candidates_before;
    assert_eq!(
        summary.count_of("dp") as u64,
        candidates,
        "one `dp` slice per grid cell, proven and bounded cells included"
    );
    assert!(
        stats.search.pruned + stats.search.bounded < stats.search.candidates,
        "some cell runs its DP"
    );
    assert_eq!(
        stats.search.candidates as u64, candidates,
        "registry delta equals the per-run snapshot"
    );

    // --- 4. the 1F1B schedule renders on per-stage lanes ---
    let fwd = timeline
        .iter()
        .filter(|e| matches!(e.kind, rannc::pipeline::PhaseKind::Forward))
        .count();
    let f0 = summary.count_of("F0");
    assert!(f0 >= 1, "micro-batch 0 forward slices present");
    let total_fb: usize = summary
        .by_name
        .iter()
        .filter(|(n, _)| n.starts_with('F') || n.starts_with('B'))
        .map(|(_, c)| *c)
        .sum();
    assert!(
        total_fb >= fwd,
        "pipeline slices cover at least the forward events"
    );

    // --- metrics log round-trips through its own checker ---
    let jsonl = sink::metrics_jsonl(&metrics::snapshot());
    let msum = check::check_metrics(&jsonl).expect("metrics log passes checks");
    assert!(msum.counters >= 1 && msum.gauges >= 1);

    trace::reset();
}
