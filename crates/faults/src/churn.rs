//! Cluster-churn event streams: continuous membership and health change.
//!
//! Where a [`crate::FaultPlan`] scripts *failures within one training
//! run*, a [`ClusterEventTrace`] scripts the *life of the cluster
//! itself*: devices leave and come back, parts throttle and recover,
//! fresh nodes join. The trace is plain data plus the seed that
//! generated it, so a churn campaign replays exactly — same seed, same
//! events, same replan decisions.
//!
//! The on-disk format is JSON, schema version 1:
//!
//! ```json
//! {
//!   "version": 1,
//!   "seed": 7,
//!   "events": [
//!     {"at": 10, "kind": "leave",   "node": 0, "local": 3},
//!     {"at": 25, "kind": "degrade", "node": 1, "local": 0, "factor": 0.5},
//!     {"at": 40, "kind": "recover", "node": 0, "local": 3},
//!     {"at": 90, "kind": "join"}
//!   ]
//! }
//! ```

use crate::FaultRng;
use rannc_hw::{ClusterSpec, DeviceRank, SpecError};
use rannc_obs::json::{self, DecodeError, SchemaError};

/// One cluster-membership or health change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterEvent {
    /// A device fails or is drained (leaves the healthy pool).
    Leave {
        /// The departing device.
        rank: DeviceRank,
    },
    /// A previously lost device returns to service.
    Recover {
        /// The returning device.
        rank: DeviceRank,
    },
    /// A device throttles to `factor` of its current compute efficiency
    /// (`0 < factor <= 1`; stacking degrades multiply).
    Degrade {
        /// The throttling device.
        rank: DeviceRank,
        /// Remaining fraction of current efficiency.
        factor: f64,
    },
    /// A fresh node of template devices joins at the end of the rank
    /// space (existing ranks are untouched).
    Join,
}

impl ClusterEvent {
    /// Apply the event to a cluster, yielding the changed cluster.
    /// `Leave` propagates the hw layer's typed [`SpecError`] (last
    /// device, out-of-shape rank); every other event is total.
    pub fn apply(&self, cluster: &ClusterSpec) -> Result<ClusterSpec, SpecError> {
        match *self {
            ClusterEvent::Leave { rank } => cluster.without_device(rank),
            ClusterEvent::Recover { rank } => Ok(cluster.clone().with_device_restored(rank)),
            ClusterEvent::Degrade { rank, factor } => {
                Ok(cluster.clone().with_degraded_device(rank, factor))
            }
            ClusterEvent::Join => Ok(cluster.clone().with_joined_node()),
        }
    }

    /// Short lowercase tag used by the JSON schema and decision logs.
    pub fn kind(&self) -> &'static str {
        match self {
            ClusterEvent::Leave { .. } => "leave",
            ClusterEvent::Recover { .. } => "recover",
            ClusterEvent::Degrade { .. } => "degrade",
            ClusterEvent::Join => "join",
        }
    }
}

/// A cluster event pinned to the training-iteration clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Iteration at which the event manifests (0-based, non-decreasing
    /// within a trace).
    pub at_iter: usize,
    /// What happens.
    pub event: ClusterEvent,
}

/// Why a serialized trace is unusable.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The bytes are not a JSON document (including non-UTF8 input).
    Parse(String),
    /// The document parses but violates the schema.
    Schema(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read event trace: {e}"),
            TraceError::Parse(e) => write!(f, "event trace is not valid JSON: {e}"),
            TraceError::Schema(e) => write!(f, "event trace violates schema v1: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A deterministic cluster-churn schedule: the event list plus the seed
/// that generated it (0 for hand-written traces).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEventTrace {
    seed: u64,
    events: Vec<TimedEvent>,
}

impl ClusterEventTrace {
    /// An empty trace (no churn) carrying a seed.
    pub fn new(seed: u64) -> Self {
        ClusterEventTrace {
            seed,
            events: Vec::new(),
        }
    }

    /// Builder-style event append. Panics on a decreasing iteration or
    /// an out-of-range degrade factor — traces are scripts, and a
    /// malformed script is a programming error at construction time.
    pub fn with_event(mut self, at_iter: usize, event: ClusterEvent) -> Self {
        self.push(at_iter, event);
        self
    }

    /// Append an event, validating trace monotonicity and parameters.
    pub fn push(&mut self, at_iter: usize, event: ClusterEvent) {
        if let Some(last) = self.events.last() {
            assert!(
                at_iter >= last.at_iter,
                "events must be appended in non-decreasing iteration order"
            );
        }
        if let ClusterEvent::Degrade { factor, .. } = event {
            assert!(
                factor > 0.0 && factor <= 1.0,
                "degrade factor must be in (0, 1]"
            );
        }
        self.events.push(TimedEvent { at_iter, event });
    }

    /// The generating seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All events in iteration order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// True when the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generate a seeded random trace of `n` events against `cluster`.
    ///
    /// Deterministic: the same `(seed, n, cluster, mean_gap)` always
    /// yields the same trace. Each event is drawn valid against the
    /// *simulated* cluster state at its time — a `Leave` never removes
    /// the last healthy device, a `Recover` targets an actually-lost
    /// device — so generated traces replay cleanly end to end.
    /// `mean_gap` is the average iteration spacing between events.
    pub fn generate(seed: u64, n: usize, cluster: &ClusterSpec, mean_gap: usize) -> Self {
        let mut rng = FaultRng::new(seed);
        let mut state = cluster.clone();
        let mut trace = ClusterEventTrace::new(seed);
        let mut at = 0usize;
        while trace.events.len() < n {
            at += 1 + (rng.unit_f64() * 2.0 * mean_gap.max(1) as f64) as usize;
            let lost: Vec<DeviceRank> = state.lost_devices.clone();
            let roll = rng.unit_f64();
            // weights: leave 0.40, degrade 0.25, recover 0.20, join 0.15 —
            // infeasible picks fall through to the next arm
            let event = if roll < 0.40 && state.healthy_devices() > 1 {
                Some(ClusterEvent::Leave {
                    rank: Self::pick_healthy(&state, &mut rng),
                })
            } else if roll < 0.65 {
                let factor = 0.25 + 0.70 * rng.unit_f64(); // (0.25, 0.95)
                Some(ClusterEvent::Degrade {
                    rank: Self::pick_healthy(&state, &mut rng),
                    factor,
                })
            } else if roll < 0.85 && !lost.is_empty() {
                let i = (rng.next_u64() % lost.len() as u64) as usize;
                Some(ClusterEvent::Recover { rank: lost[i] })
            } else if roll >= 0.85 {
                Some(ClusterEvent::Join)
            } else {
                None // infeasible arm this round; advance time and retry
            };
            if let Some(event) = event {
                state = event.apply(&state).expect("generated event must apply");
                trace.push(at, event);
            }
        }
        trace
    }

    fn pick_healthy(state: &ClusterSpec, rng: &mut FaultRng) -> DeviceRank {
        let healthy: Vec<DeviceRank> = (0..state.total_devices())
            .map(|g| state.rank(g))
            .filter(|r| !state.is_lost(*r))
            .collect();
        healthy[(rng.next_u64() % healthy.len() as u64) as usize]
    }

    /// Replay the whole trace from `cluster`, returning the final state.
    /// Stops with the hw layer's typed error if any event is invalid
    /// against the evolved state.
    pub fn final_state(&self, cluster: &ClusterSpec) -> Result<ClusterSpec, SpecError> {
        let mut state = cluster.clone();
        for e in &self.events {
            state = e.event.apply(&state)?;
        }
        Ok(state)
    }

    /// Serialize to the schema-v1 JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let body = match e.event {
                ClusterEvent::Leave { rank } => format!(
                    "\"kind\": \"leave\", \"node\": {}, \"local\": {}",
                    rank.node, rank.local
                ),
                ClusterEvent::Recover { rank } => format!(
                    "\"kind\": \"recover\", \"node\": {}, \"local\": {}",
                    rank.node, rank.local
                ),
                ClusterEvent::Degrade { rank, factor } => format!(
                    "\"kind\": \"degrade\", \"node\": {}, \"local\": {}, \"factor\": {}",
                    rank.node,
                    rank.local,
                    rannc_obs::json::fmt_f64(factor)
                ),
                ClusterEvent::Join => "\"kind\": \"join\"".to_string(),
            };
            out.push_str(&format!("    {{\"at\": {}, {}}}", e.at_iter, body));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a schema-v1 JSON document. Hand-written input is read
    /// strictly: unknown or duplicate keys, inexact or negative integers
    /// and decreasing event times are schema errors. `seed` is optional
    /// (0 when absent).
    pub fn from_json(s: &str) -> Result<Self, TraceError> {
        json::decode(s, |root| {
            let doc = root.obj()?;
            doc.deny_unknown(&["version", "seed", "events"])?;
            doc.version(1)?;
            let seed = doc.opt("seed").map_or(Ok(0), |n| n.u64())?;
            let mut trace = ClusterEventTrace::new(seed);
            for ev in doc.get("events")?.items()? {
                let ev = ev.obj()?;
                let at = ev.get("at")?;
                let at_iter = at.usize()?;
                if trace
                    .events
                    .last()
                    .is_some_and(|last| at_iter < last.at_iter)
                {
                    return Err(at.error("decreasing event time"));
                }
                let rank = || -> Result<DeviceRank, SchemaError> {
                    Ok(DeviceRank {
                        node: ev.get("node")?.usize()?,
                        local: ev.get("local")?.usize()?,
                    })
                };
                let kind = ev.get("kind")?;
                let (event, keys): (_, &[&str]) = match kind.str()? {
                    "leave" => (ClusterEvent::Leave { rank: rank()? }, &RANK_KEYS),
                    "recover" => (ClusterEvent::Recover { rank: rank()? }, &RANK_KEYS),
                    "degrade" => {
                        let factor = ev.get("factor")?;
                        let f = factor.f64()?;
                        if !(f > 0.0 && f <= 1.0) {
                            return Err(
                                factor.error(format!("expected a factor in (0, 1], got {f}"))
                            );
                        }
                        let event = ClusterEvent::Degrade {
                            rank: rank()?,
                            factor: f,
                        };
                        (event, &["at", "kind", "node", "local", "factor"])
                    }
                    "join" => (ClusterEvent::Join, &["at", "kind"]),
                    other => return Err(kind.error(format!("unknown kind {other:?}"))),
                };
                ev.deny_unknown(keys)?;
                trace.events.push(TimedEvent { at_iter, event });
            }
            Ok(trace)
        })
        .map_err(|e| match e {
            DecodeError::Parse(e) => TraceError::Parse(e.to_string()),
            DecodeError::Schema(e) => TraceError::Schema(e.to_string()),
        })
    }

    /// Write the trace to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a trace from a file with typed errors: I/O problems surface
    /// as [`TraceError::Io`], non-UTF8 bytes and malformed JSON as
    /// [`TraceError::Parse`], schema violations as
    /// [`TraceError::Schema`] — never a panic.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path).map_err(TraceError::Io)?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| TraceError::Parse(format!("not UTF-8: {e}")))?;
        Self::from_json(text)
    }
}

/// Keys of an event that names a device.
const RANK_KEYS: [&str; 4] = ["at", "kind", "node", "local"];

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(node: usize, local: usize) -> DeviceRank {
        DeviceRank { node, local }
    }

    #[test]
    fn apply_walks_the_cluster_lifecycle() {
        let c = ClusterSpec::v100_cluster(1);
        let c = ClusterEvent::Leave { rank: rank(0, 3) }.apply(&c).unwrap();
        assert_eq!(c.healthy_devices(), 7);
        let c = ClusterEvent::Degrade {
            rank: rank(0, 0),
            factor: 0.5,
        }
        .apply(&c)
        .unwrap();
        assert!(c.is_heterogeneous());
        let c = ClusterEvent::Recover { rank: rank(0, 3) }
            .apply(&c)
            .unwrap();
        assert_eq!(c.healthy_devices(), 8);
        let c = ClusterEvent::Join.apply(&c).unwrap();
        assert_eq!(c.nodes, 2);
        assert_eq!(c.healthy_devices(), 16);
    }

    #[test]
    fn leave_of_last_device_propagates_spec_error() {
        let mut c = ClusterSpec::v100_cluster(1);
        for local in 0..7 {
            c = ClusterEvent::Leave {
                rank: rank(0, local),
            }
            .apply(&c)
            .unwrap();
        }
        let err = ClusterEvent::Leave { rank: rank(0, 7) }.apply(&c);
        assert_eq!(err, Err(SpecError::LastDevice { rank: rank(0, 7) }));
    }

    #[test]
    fn generation_is_deterministic_and_replayable() {
        let c = ClusterSpec::v100_cluster(2);
        let a = ClusterEventTrace::generate(7, 50, &c, 10);
        let b = ClusterEventTrace::generate(7, 50, &c, 10);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 50);
        // distinct seed, distinct trace
        let other = ClusterEventTrace::generate(8, 50, &c, 10);
        assert_ne!(a, other);
        // every generated event applies cleanly in sequence
        let final_state = a.final_state(&c).expect("trace replays");
        assert!(final_state.healthy_devices() > 0);
        // and time is non-decreasing
        for w in a.events().windows(2) {
            assert!(w[0].at_iter <= w[1].at_iter);
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_trace() {
        let c = ClusterSpec::v100_cluster(2);
        let t = ClusterEventTrace::generate(42, 20, &c, 5);
        let parsed = ClusterEventTrace::from_json(&t.to_json()).expect("roundtrip");
        assert_eq!(t, parsed);
    }

    #[test]
    fn hand_written_document_parses() {
        let doc = r#"{
            "version": 1,
            "seed": 9,
            "events": [
                {"at": 10, "kind": "leave", "node": 0, "local": 3},
                {"at": 25, "kind": "degrade", "node": 1, "local": 0, "factor": 0.5},
                {"at": 40, "kind": "recover", "node": 0, "local": 3},
                {"at": 90, "kind": "join"}
            ]
        }"#;
        let t = ClusterEventTrace::from_json(doc).expect("parses");
        assert_eq!(t.seed(), 9);
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.events()[0].event.kind(), "leave");
        assert_eq!(t.events()[3].event, ClusterEvent::Join);
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        assert!(matches!(
            ClusterEventTrace::from_json("{"),
            Err(TraceError::Parse(_))
        ));
        assert!(matches!(
            ClusterEventTrace::from_json("[1, 2]"),
            Err(TraceError::Schema(_))
        ));
        assert!(matches!(
            ClusterEventTrace::from_json(r#"{"version": 2, "events": []}"#),
            Err(TraceError::Schema(_))
        ));
        assert!(matches!(
            ClusterEventTrace::from_json(
                r#"{"version": 1, "events": [{"at": 1, "kind": "warp"}]}"#
            ),
            Err(TraceError::Schema(_))
        ));
        assert!(matches!(
            ClusterEventTrace::from_json(
                r#"{"version": 1, "events": [{"at": 5, "kind": "leave", "node": 0, "local": 1},
                                            {"at": 2, "kind": "join"}]}"#
            ),
            Err(TraceError::Schema(_))
        ));
        // values the reader once coerced silently: negative or
        // fractional integers, saturating casts, unknown and duplicate
        // keys, and a `seed` outside the root
        for bad in [
            r#"{"version": 1, "events": [{"at": -4, "kind": "join"}]}"#,
            r#"{"version": 1, "events": [{"at": 2.9, "kind": "join"}]}"#,
            r#"{"version": 1, "events": [{"at": 1, "kind": "leave", "node": 0, "local": -1}]}"#,
            r#"{"version": 1, "events": [{"at": 1, "kind": "leave", "node": 1e300, "local": 0}]}"#,
            r#"{"version": 1, "seed": -1, "events": []}"#,
            r#"{"version": 1, "seed": 1.5, "events": []}"#,
            r#"{"version": 1, "seed": 18446744073709551616, "events": []}"#,
            r#"{"version": 1, "seed": 1, "seed": 2, "events": []}"#,
            r#"{"version": 1, "events": [], "comment": "typo"}"#,
            r#"{"version": 1, "events": [{"at": 1, "kind": "join", "seed": 5}]}"#,
            r#"{"version": 1, "events": [{"at": 1, "kind": "join", "node": 0}]}"#,
            r#"{"version": 1.0, "events": []}"#,
        ] {
            assert!(
                matches!(
                    ClusterEventTrace::from_json(bad),
                    Err(TraceError::Schema(_))
                ),
                "accepted {bad}"
            );
        }
        assert!(matches!(
            ClusterEventTrace::from_json(&"[".repeat(200_000)),
            Err(TraceError::Parse(_))
        ));
        // the full u64 range is exact
        let max = ClusterEventTrace::from_json(
            r#"{"version": 1, "seed": 18446744073709551615, "events": []}"#,
        )
        .expect("u64::MAX seed");
        assert_eq!(max.seed(), u64::MAX);
    }

    #[test]
    fn load_of_non_utf8_file_is_a_typed_error() {
        let dir = std::env::temp_dir().join("rannc-churn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, [0xffu8, 0xfe, 0x00, 0x80]).unwrap();
        assert!(matches!(
            ClusterEventTrace::load(&path),
            Err(TraceError::Parse(_))
        ));
        assert!(matches!(
            ClusterEventTrace::load(dir.join("missing.json")),
            Err(TraceError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
