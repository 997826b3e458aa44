//! The frozen JSON calibration-file schema for [`CalibratedCost`].
//!
//! A calibration file records multiplicative correction factors fitted
//! against measurements (e.g. from `rannc-obs` trace exports). The
//! schema is *frozen* at version 1, like the §10 observability event
//! schema: readers reject unknown top-level keys and unknown versions so
//! a stale planner never silently misreads a newer file.
//!
//! ```json
//! {
//!   "version": 1,
//!   "compute": 1.0,
//!   "ops": { "matmul": 1.12, "softmax": 0.95 },
//!   "links": { "intra": 1.0, "inter": 1.25 },
//!   "allreduce": 1.05,
//!   "optimizer": 1.0,
//!   "memory": 1.0
//! }
//! ```
//!
//! Every field except `version` is optional and defaults to the identity
//! factor `1.0`. `ops` keys are [`rannc_graph::OpKind::name`] strings.
//!
//! [`CalibratedCost`]: crate::CalibratedCost

use rannc_obs::json::{self, DecodeError, Node, Obj, SchemaError};
use std::fmt;
use std::path::Path;

/// The only calibration-file schema version this build reads or writes.
pub const CALIBRATION_VERSION: u64 = 1;

/// Multiplicative correction factors for the analytical cost model.
///
/// The identity calibration (all factors `1.0`, no per-op entries)
/// reproduces the analytical model (the raw `Profiler`) bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Global factor on modelled kernel time, composed with `ops`.
    pub compute: f64,
    /// Per-operator factors keyed by [`rannc_graph::OpKind::name`],
    /// in file order.
    pub ops: Vec<(String, f64)>,
    /// Factor on times over the intra-node link (NVLink).
    pub link_intra: f64,
    /// Factor on times over the inter-node link (InfiniBand).
    pub link_inter: f64,
    /// Factor on gradient all-reduce time, composed with the link factor
    /// of the link the ring runs over.
    pub allreduce: f64,
    /// Factor on optimizer-step time.
    pub optimizer: f64,
    /// Factor on estimated peak stage memory.
    pub memory: f64,
}

impl Calibration {
    /// The identity calibration: no correction anywhere.
    pub fn identity() -> Self {
        Calibration {
            compute: 1.0,
            ops: Vec::new(),
            link_intra: 1.0,
            link_inter: 1.0,
            allreduce: 1.0,
            optimizer: 1.0,
            memory: 1.0,
        }
    }

    /// Compute-time factor for one operator: the global `compute` factor
    /// composed with the operator's own entry (first match wins).
    pub fn op_factor(&self, op_name: &str) -> f64 {
        let per_op = self
            .ops
            .iter()
            .find(|(name, _)| name == op_name)
            .map(|&(_, f)| f)
            .unwrap_or(1.0);
        self.compute * per_op
    }

    /// Whether every factor is the identity (the resulting model prices
    /// exactly like the analytical one).
    pub fn is_identity(&self) -> bool {
        self.compute == 1.0
            && self.link_intra == 1.0
            && self.link_inter == 1.0
            && self.allreduce == 1.0
            && self.optimizer == 1.0
            && self.memory == 1.0
            && self.ops.iter().all(|&(_, f)| f == 1.0)
    }

    /// Serialize to the frozen version-1 JSON schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", CALIBRATION_VERSION));
        out.push_str(&format!(
            "  \"compute\": {},\n",
            json::fmt_f64(self.compute)
        ));
        out.push_str("  \"ops\": {");
        for (i, (name, f)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {}",
                json::escape(name),
                json::fmt_f64(*f)
            ));
        }
        if !self.ops.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"links\": {{ \"intra\": {}, \"inter\": {} }},\n",
            json::fmt_f64(self.link_intra),
            json::fmt_f64(self.link_inter)
        ));
        out.push_str(&format!(
            "  \"allreduce\": {},\n",
            json::fmt_f64(self.allreduce)
        ));
        out.push_str(&format!(
            "  \"optimizer\": {},\n",
            json::fmt_f64(self.optimizer)
        ));
        out.push_str(&format!("  \"memory\": {}\n", json::fmt_f64(self.memory)));
        out.push('}');
        out
    }

    /// Parse a version-1 calibration document, rejecting unknown keys,
    /// duplicate keys, unknown versions, and non-positive factors.
    pub fn from_json(s: &str) -> Result<Self, CalibrationError> {
        json::decode(s, |root| {
            let doc = root.obj()?;
            doc.deny_unknown(&[
                "version",
                "compute",
                "ops",
                "links",
                "allreduce",
                "optimizer",
                "memory",
            ])?;
            doc.version(CALIBRATION_VERSION)?;
            let mut cal = Calibration {
                compute: opt_factor(&doc, "compute")?,
                allreduce: opt_factor(&doc, "allreduce")?,
                optimizer: opt_factor(&doc, "optimizer")?,
                memory: opt_factor(&doc, "memory")?,
                ..Calibration::identity()
            };
            if let Some(ops) = doc.opt("ops") {
                for (op, f) in ops.obj()?.entries() {
                    cal.ops.push((op.to_string(), factor(f)?));
                }
            }
            if let Some(links) = doc.opt("links") {
                let links = links.obj()?;
                links.deny_unknown(&["intra", "inter"])?;
                cal.link_intra = opt_factor(&links, "intra")?;
                cal.link_inter = opt_factor(&links, "inter")?;
            }
            Ok(cal)
        })
        .map_err(|e| match e {
            DecodeError::Parse(e) => CalibrationError::Parse(e.to_string()),
            DecodeError::Schema(e) => CalibrationError::Schema(e.to_string()),
        })
    }

    /// Load a calibration file from disk.
    pub fn load(path: &Path) -> Result<Self, CalibrationError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CalibrationError::Io(format!("{}: {e}", path.display())))?;
        Calibration::from_json(&text)
    }

    /// Write the calibration file to disk.
    pub fn save(&self, path: &Path) -> Result<(), CalibrationError> {
        std::fs::write(path, self.to_json())
            .map_err(|e| CalibrationError::Io(format!("{}: {e}", path.display())))
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::identity()
    }
}

/// A positive finite factor.
fn factor(node: Node<'_>) -> Result<f64, SchemaError> {
    match node.f64()? {
        f if f > 0.0 => Ok(f),
        f => Err(node.error(format!("expected a positive factor, got {f}"))),
    }
}

/// An optional factor field; absent is the identity.
fn opt_factor(o: &Obj<'_>, key: &str) -> Result<f64, SchemaError> {
    o.opt(key).map_or(Ok(1.0), factor)
}

/// Why a calibration file could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// The file could not be read or written.
    Io(String),
    /// The document is not well-formed JSON.
    Parse(String),
    /// The document is valid JSON but violates the frozen schema.
    Schema(String),
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::Io(m) => write!(f, "calibration io error: {m}"),
            CalibrationError::Parse(m) => write!(f, "calibration parse error: {m}"),
            CalibrationError::Schema(m) => write!(f, "calibration schema error: {m}"),
        }
    }
}

impl std::error::Error for CalibrationError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Calibration {
        Calibration {
            compute: 1.05,
            ops: vec![("matmul".into(), 1.12), ("softmax".into(), 0.95)],
            link_intra: 1.01,
            link_inter: 1.25,
            allreduce: 1.07,
            optimizer: 0.9,
            memory: 1.1,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let cal = sample();
        let parsed = Calibration::from_json(&cal.to_json()).expect("round trip");
        assert_eq!(parsed, cal);
        // identity round-trips too, and stays identity
        let id = Calibration::identity();
        let parsed = Calibration::from_json(&id.to_json()).expect("identity round trip");
        assert_eq!(parsed, id);
        assert!(parsed.is_identity());
    }

    #[test]
    fn missing_fields_default_to_identity() {
        let cal = Calibration::from_json(r#"{"version": 1}"#).expect("minimal");
        assert_eq!(cal, Calibration::identity());
        let cal =
            Calibration::from_json(r#"{"version": 1, "ops": {"matmul": 2.0}}"#).expect("partial");
        assert_eq!(cal.op_factor("matmul"), 2.0);
        assert_eq!(cal.op_factor("gelu"), 1.0);
        assert!(!cal.is_identity());
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(matches!(
            Calibration::from_json("[1,2]"),
            Err(CalibrationError::Schema(_))
        ));
        assert!(matches!(
            Calibration::from_json(r#"{"version": 2}"#),
            Err(CalibrationError::Schema(_))
        ));
        assert!(matches!(
            Calibration::from_json(r#"{"compute": 1.0}"#),
            Err(CalibrationError::Schema(_))
        ));
        assert!(matches!(
            Calibration::from_json(r#"{"version": 1, "typo": 1.0}"#),
            Err(CalibrationError::Schema(_))
        ));
        assert!(matches!(
            Calibration::from_json(r#"{"version": 1, "compute": -1.0}"#),
            Err(CalibrationError::Schema(_))
        ));
        assert!(matches!(
            Calibration::from_json(r#"{"version": 1, "links": {"wan": 2.0}}"#),
            Err(CalibrationError::Schema(_))
        ));
        assert!(matches!(
            Calibration::from_json("{"),
            Err(CalibrationError::Parse(_))
        ));
        for bad in [
            r#"{"version": 1.0}"#,
            r#"{"version": 1, "version": 1}"#,
            r#"{"version": 1, "ops": {"matmul": 1.1, "matmul": 0.9}}"#,
            r#"{"version": 1, "ops": {"matmul": "fast"}}"#,
            r#"{"version": 1, "memory": 1e999}"#,
            r#"{"version": 1, "links": [1.0, 2.0]}"#,
        ] {
            assert!(
                matches!(
                    Calibration::from_json(bad),
                    Err(CalibrationError::Schema(_))
                ),
                "accepted {bad}"
            );
        }
        assert!(matches!(
            Calibration::from_json(&"[".repeat(200_000)),
            Err(CalibrationError::Parse(_))
        ));
    }

    #[test]
    fn op_factor_composes_with_global_compute() {
        let cal = sample();
        assert_eq!(cal.op_factor("matmul"), 1.05 * 1.12);
        assert_eq!(cal.op_factor("gelu"), 1.05);
    }

    #[test]
    fn truncated_file_on_disk_is_a_typed_error() {
        let dir = std::env::temp_dir().join("rannc_calibration_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        let full = sample().to_json();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            Calibration::load(&path),
            Err(CalibrationError::Parse(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_file_is_a_typed_error() {
        let dir = std::env::temp_dir().join("rannc_calibration_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("binary.json");
        std::fs::write(&path, [0xffu8, 0xfe, 0x80, 0x00]).unwrap();
        // read_to_string rejects non-UTF8 bytes as an I/O error
        let err = Calibration::load(&path).unwrap_err();
        assert!(matches!(err, CalibrationError::Io(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let err = Calibration::load(Path::new("/nonexistent/rannc/cal.json")).unwrap_err();
        assert!(matches!(err, CalibrationError::Io(_)));
        assert!(err.to_string().contains("cal.json"));
    }
}
