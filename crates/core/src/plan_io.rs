//! Partition-plan persistence.
//!
//! The real RaNNC middleware caches partitioning results on disk
//! ("deployment files") so that production training jobs skip the
//! profiling-heavy search on restart. This module gives the reproduction
//! the same capability: a versioned, self-contained binary codec for
//! [`PartitionPlan`] with an integrity checksum.
//!
//! Format (little-endian):
//! `magic "RNCP" | u32 version | payload | u64 fnv1a(payload)`.
//!
//! Version history: v1 had no per-stage tensor-parallel degree; v2
//! writes it after `replicas`. The decoder accepts both — v1 stages
//! load as unsplit (`tensor_parallel = 1`).

use crate::plan::{PartitionPlan, StagePlan};
use rannc_graph::{TaskId, TaskSet};
use rannc_verify::Report;

const MAGIC: &[u8; 4] = b"RNCP";
const VERSION: u32 = 2;
/// Oldest version the decoder still reads.
const MIN_VERSION: u32 = 1;
/// Smallest encoded stage in the v1 layout: universe (8) + member count
/// (4) + six 8-byte fields; v2 adds the 8-byte tensor-parallel degree.
const MIN_STAGE_BYTES_V1: usize = 60;
/// Largest task-set universe a plan can carry: task ids are `u32`.
const MAX_UNIVERSE: usize = u32::MAX as usize + 1;

/// Why loading or decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanIoError {
    /// The file could not be read at all.
    Io(String),
    /// Not a plan file (bad magic).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Payload shorter than its headers promise.
    Truncated,
    /// Checksum mismatch (corrupted file).
    Corrupted,
    /// The payload decoded but describes an invalid plan (the structural
    /// subset of `rannc-verify` — no graph or cluster at hand here).
    FailedVerification(Report),
}

impl std::fmt::Display for PlanIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanIoError::Io(m) => write!(f, "cannot read plan file: {m}"),
            PlanIoError::BadMagic => write!(f, "not a RaNNC plan file"),
            PlanIoError::BadVersion(v) => write!(f, "unsupported plan version {v}"),
            PlanIoError::Truncated => write!(f, "plan file truncated"),
            PlanIoError::Corrupted => write!(f, "plan file checksum mismatch"),
            PlanIoError::FailedVerification(report) => {
                let (e, _) = report.counts();
                write!(f, "plan file decodes to an invalid plan ({e} error(s)):")?;
                for d in report.errors() {
                    write!(f, "\n  {}", d.render())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PlanIoError {}

/// Serialize a plan to bytes.
pub fn encode_plan(plan: &PartitionPlan) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1024);
    put_str(&mut payload, &plan.model);
    put_u64(&mut payload, plan.microbatches as u64);
    put_u64(&mut payload, plan.replica_factor as u64);
    put_u64(&mut payload, plan.batch_size as u64);
    put_f64(&mut payload, plan.bottleneck);
    put_f64(&mut payload, plan.est_iteration_time);
    put_u32(&mut payload, plan.stages.len() as u32);
    for st in &plan.stages {
        put_u64(&mut payload, st.set.universe() as u64);
        let members: Vec<TaskId> = st.set.iter().collect();
        put_u32(&mut payload, members.len() as u32);
        for t in members {
            put_u32(&mut payload, t.0);
        }
        put_u64(&mut payload, st.replicas as u64);
        put_u64(&mut payload, st.tensor_parallel as u64);
        put_u64(&mut payload, st.micro_batch as u64);
        put_f64(&mut payload, st.fwd_time);
        put_f64(&mut payload, st.bwd_time);
        put_u64(&mut payload, st.mem_bytes as u64);
        put_u64(&mut payload, st.param_elems as u64);
    }

    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, fnv1a(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Deserialize a plan from bytes.
pub fn decode_plan(mut data: &[u8]) -> Result<PartitionPlan, PlanIoError> {
    if data.len() < 16 {
        return Err(PlanIoError::Truncated);
    }
    if &data[..4] != MAGIC {
        return Err(PlanIoError::BadMagic);
    }
    data = &data[4..];
    let version = get_u32(&mut data)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(PlanIoError::BadVersion(version));
    }
    let checksum = get_u64(&mut data)?;
    if fnv1a(data) != checksum {
        return Err(PlanIoError::Corrupted);
    }

    let model = get_str(&mut data)?;
    let microbatches = get_usize(&mut data)?;
    let replica_factor = get_usize(&mut data)?;
    let batch_size = get_usize(&mut data)?;
    let bottleneck = get_f64(&mut data)?;
    let est_iteration_time = get_f64(&mut data)?;
    // The checksum is trivially forgeable, so no header word may size an
    // allocation before it is checked against the bytes actually present.
    let n_stages = get_u32(&mut data)? as usize;
    let min_stage_bytes = MIN_STAGE_BYTES_V1 + if version >= 2 { 8 } else { 0 };
    if n_stages > data.len() / min_stage_bytes {
        return Err(PlanIoError::Truncated);
    }
    let mut stages: Vec<StagePlan> = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let universe = get_usize(&mut data)?;
        let valid = match stages.first() {
            // Checked before any set is built: a plan lists every task of
            // its graph at least once, so the universe cannot exceed the
            // task ids the rest of the payload can hold.
            None => universe <= MAX_UNIVERSE && universe <= data.len() / 4,
            Some(first) => first.set.universe() == universe,
        };
        if !valid {
            return Err(PlanIoError::Corrupted);
        }
        let n_members = get_u32(&mut data)? as usize;
        let mut set = TaskSet::new(universe);
        for _ in 0..n_members {
            let id = get_u32(&mut data)?;
            if id as usize >= universe {
                return Err(PlanIoError::Corrupted);
            }
            set.insert(TaskId(id));
        }
        let replicas = get_usize(&mut data)?;
        // v1 files predate the tensor-parallel axis: unsplit stages
        let tensor_parallel = if version >= 2 {
            get_usize(&mut data)?
        } else {
            1
        };
        stages.push(StagePlan {
            set,
            replicas,
            tensor_parallel,
            micro_batch: get_usize(&mut data)?,
            fwd_time: get_f64(&mut data)?,
            bwd_time: get_f64(&mut data)?,
            mem_bytes: get_usize(&mut data)?,
            param_elems: get_usize(&mut data)?,
        });
    }
    let plan = PartitionPlan {
        model,
        stages,
        microbatches,
        replica_factor,
        batch_size,
        bottleneck,
        est_iteration_time,
    };
    // A checksum only proves the bytes survived transit; verify the
    // *meaning* too, so a stale or hand-edited deployment file cannot
    // smuggle a nonsense plan into a training job.
    let report = rannc_verify::verify_plan_structure(&plan.view());
    if report.has_errors() {
        return Err(PlanIoError::FailedVerification(report));
    }
    Ok(plan)
}

/// Save a plan to a file.
pub fn save_plan(plan: &PartitionPlan, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode_plan(plan))
}

/// Load a plan from a file. Every failure mode — unreadable file,
/// truncated or non-UTF8 contents, checksum mismatch, structurally
/// invalid plan — surfaces as a typed [`PlanIoError`], never a panic.
pub fn load_plan(path: &std::path::Path) -> Result<PartitionPlan, PlanIoError> {
    let bytes =
        std::fs::read(path).map_err(|e| PlanIoError::Io(format!("{}: {e}", path.display())))?;
    decode_plan(&bytes)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(data: &mut &[u8]) -> Result<String, PlanIoError> {
    let len = get_u32(data)? as usize;
    if data.len() < len {
        return Err(PlanIoError::Truncated);
    }
    let s = String::from_utf8(data[..len].to_vec()).map_err(|_| PlanIoError::Corrupted)?;
    *data = &data[len..];
    Ok(s)
}

fn get_u32(data: &mut &[u8]) -> Result<u32, PlanIoError> {
    if data.len() < 4 {
        return Err(PlanIoError::Truncated);
    }
    let (head, rest) = data.split_at(4);
    *data = rest;
    Ok(u32::from_le_bytes(head.try_into().unwrap()))
}

fn get_u64(data: &mut &[u8]) -> Result<u64, PlanIoError> {
    if data.len() < 8 {
        return Err(PlanIoError::Truncated);
    }
    let (head, rest) = data.split_at(8);
    *data = rest;
    Ok(u64::from_le_bytes(head.try_into().unwrap()))
}

fn get_usize(data: &mut &[u8]) -> Result<usize, PlanIoError> {
    Ok(get_u64(data)? as usize)
}

fn get_f64(data: &mut &[u8]) -> Result<f64, PlanIoError> {
    Ok(f64::from_bits(get_u64(data)?))
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_graph::TaskId;

    /// Two stages covering a 66-task universe, as every real plan covers
    /// its graph; stage 0 spans two bitset words.
    fn sample_plan() -> PartitionPlan {
        let mk = |ids: &[u32], replicas: usize| StagePlan {
            set: TaskSet::from_ids(66, ids.iter().map(|&i| TaskId(i))),
            replicas,
            tensor_parallel: 1,
            micro_batch: 2,
            fwd_time: 0.0123,
            bwd_time: 0.0456,
            mem_bytes: 7 << 30,
            param_elems: 123_456_789,
        };
        PartitionPlan {
            model: "bert[h=1024,l=24]".into(),
            stages: vec![
                mk(&[0, 1, 2, 63, 64], 3),
                mk(&(3..63).chain([65]).collect::<Vec<_>>(), 5),
            ],
            microbatches: 8,
            replica_factor: 4,
            batch_size: 512,
            bottleneck: 0.1,
            est_iteration_time: 1.5,
        }
    }

    #[test]
    fn roundtrip() {
        let plan = sample_plan();
        let bytes = encode_plan(&plan);
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(back.model, plan.model);
        assert_eq!(back.microbatches, plan.microbatches);
        assert_eq!(back.replica_factor, plan.replica_factor);
        assert_eq!(back.batch_size, plan.batch_size);
        assert_eq!(back.bottleneck, plan.bottleneck);
        assert_eq!(back.stages.len(), plan.stages.len());
        for (a, b) in back.stages.iter().zip(&plan.stages) {
            assert_eq!(a.set, b.set);
            assert_eq!(a.replicas, b.replicas);
            assert_eq!(a.fwd_time, b.fwd_time);
            assert_eq!(a.param_elems, b.param_elems);
        }
    }

    /// Re-encode a plan in the pre-3D v1 layout (no per-stage
    /// `tensor_parallel` word) — the bytes a deployment file written by
    /// an older build carries.
    fn encode_plan_v1(plan: &PartitionPlan) -> Vec<u8> {
        let mut payload = Vec::with_capacity(1024);
        put_str(&mut payload, &plan.model);
        put_u64(&mut payload, plan.microbatches as u64);
        put_u64(&mut payload, plan.replica_factor as u64);
        put_u64(&mut payload, plan.batch_size as u64);
        put_f64(&mut payload, plan.bottleneck);
        put_f64(&mut payload, plan.est_iteration_time);
        put_u32(&mut payload, plan.stages.len() as u32);
        for st in &plan.stages {
            put_u64(&mut payload, st.set.universe() as u64);
            let members: Vec<TaskId> = st.set.iter().collect();
            put_u32(&mut payload, members.len() as u32);
            for t in members {
                put_u32(&mut payload, t.0);
            }
            put_u64(&mut payload, st.replicas as u64);
            put_u64(&mut payload, st.micro_batch as u64);
            put_f64(&mut payload, st.fwd_time);
            put_f64(&mut payload, st.bwd_time);
            put_u64(&mut payload, st.mem_bytes as u64);
            put_u64(&mut payload, st.param_elems as u64);
        }
        let mut out = Vec::with_capacity(payload.len() + 16);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, 1);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn legacy_v1_file_loads_as_unsplit() {
        let plan = sample_plan();
        let bytes = encode_plan_v1(&plan);
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(back.stages.len(), plan.stages.len());
        for (a, b) in back.stages.iter().zip(&plan.stages) {
            assert_eq!(a.tensor_parallel, 1);
            assert_eq!(a.replicas, b.replicas);
            assert_eq!(a.micro_batch, b.micro_batch);
            assert_eq!(a.fwd_time, b.fwd_time);
            assert_eq!(a.param_elems, b.param_elems);
        }
    }

    #[test]
    fn tensor_parallel_roundtrips_in_v2() {
        let mut plan = sample_plan();
        plan.stages[0].tensor_parallel = 4;
        plan.stages[1].tensor_parallel = 2;
        let back = decode_plan(&encode_plan(&plan)).unwrap();
        assert_eq!(back.stages[0].tensor_parallel, 4);
        assert_eq!(back.stages[1].tensor_parallel, 2);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_plan(&sample_plan()).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode_plan(&bytes).unwrap_err(), PlanIoError::BadMagic);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = encode_plan(&sample_plan()).to_vec();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xff;
        assert_eq!(decode_plan(&bytes).unwrap_err(), PlanIoError::Corrupted);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_plan(&sample_plan());
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            let err = decode_plan(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PlanIoError::Truncated | PlanIoError::Corrupted),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn version_checked() {
        let mut bytes = encode_plan(&sample_plan()).to_vec();
        bytes[4] = 99;
        assert_eq!(
            decode_plan(&bytes).unwrap_err(),
            PlanIoError::BadVersion(99)
        );
    }

    #[test]
    fn invalid_decoded_plan_rejected() {
        // valid bytes, invalid meaning: a stage with zero replicas
        let mut plan = sample_plan();
        plan.stages[0].replicas = 0;
        let err = decode_plan(&encode_plan(&plan)).unwrap_err();
        match err {
            PlanIoError::FailedVerification(report) => {
                assert!(report.has_code(rannc_verify::Code::DegenerateCounts));
            }
            other => panic!("expected FailedVerification, got {other:?}"),
        }
        // counts whose product overflows are infeasible, not a panic
        let mut plan = sample_plan();
        plan.microbatches = usize::MAX;
        match decode_plan(&encode_plan(&plan)).unwrap_err() {
            PlanIoError::FailedVerification(report) => {
                assert!(report.has_code(rannc_verify::Code::MicrobatchInfeasible));
            }
            other => panic!("expected FailedVerification, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let plan = sample_plan();
        let dir = std::env::temp_dir().join("rannc_plan_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.rncp");
        save_plan(&plan, &path).unwrap();
        let back = load_plan(&path).unwrap();
        assert_eq!(back.model, plan.model);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unreadable_file_is_a_typed_error() {
        let err = load_plan(std::path::Path::new("/nonexistent/rannc/plan.rncp")).unwrap_err();
        assert!(matches!(err, PlanIoError::Io(_)));
        // the message carries the offending path
        assert!(err.to_string().contains("plan.rncp"));
    }

    #[test]
    fn truncated_file_on_disk_is_a_typed_error() {
        let dir = std::env::temp_dir().join("rannc_plan_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.rncp");
        let bytes = encode_plan(&sample_plan());
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_plan(&path).unwrap_err();
        assert!(
            matches!(err, PlanIoError::Truncated | PlanIoError::Corrupted),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_model_name_is_a_typed_error() {
        // corrupt the model-name string to invalid UTF-8 and re-stamp the
        // checksum, so the decoder reaches the string decode itself
        let mut bytes = encode_plan(&sample_plan());
        // layout: magic(4) | version(4) | checksum(8) | payload…
        // payload: name_len(4) | name…
        bytes[20] = 0xff; // never valid anywhere in UTF-8
        let checksum = fnv1a(&bytes[16..]);
        bytes[8..16].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(decode_plan(&bytes).unwrap_err(), PlanIoError::Corrupted);
    }

    /// Overwrite the file bytes at `offset` and re-stamp the checksum, as
    /// a forger would: the FNV-1a checksum protects nothing on its own.
    fn forge(bytes: &mut [u8], offset: usize, word: &[u8]) {
        bytes[offset..offset + word.len()].copy_from_slice(word);
        let checksum = fnv1a(&bytes[16..]);
        bytes[8..16].copy_from_slice(&checksum.to_le_bytes());
    }

    /// File offset of the stage-count word: header (16) | name length (4)
    /// | name | three counts and two times (40).
    fn stage_count_offset(plan: &PartitionPlan) -> usize {
        16 + 4 + plan.model.len() + 40
    }

    #[test]
    fn forged_stage_count_is_truncated_not_an_allocation() {
        let plan = sample_plan();
        let mut bytes = encode_plan(&plan);
        forge(
            &mut bytes,
            stage_count_offset(&plan),
            &u32::MAX.to_le_bytes(),
        );
        assert_eq!(decode_plan(&bytes).unwrap_err(), PlanIoError::Truncated);
    }

    #[test]
    fn forged_universe_is_corrupted_not_an_allocation() {
        let plan = sample_plan();
        let stage0 = stage_count_offset(&plan) + 4;
        let mut huge = encode_plan(&plan);
        forge(&mut huge, stage0, &(1u64 << 62).to_le_bytes());
        assert_eq!(decode_plan(&huge).unwrap_err(), PlanIoError::Corrupted);
        // stage 1 claiming a universe other than stage 0's: stage 0 is
        // universe (8) | count (4) | 5 members (20) | seven words (56)
        let mut mismatched = encode_plan(&plan);
        forge(&mut mismatched, stage0 + 88, &101u64.to_le_bytes());
        assert_eq!(
            decode_plan(&mismatched).unwrap_err(),
            PlanIoError::Corrupted
        );
    }

    #[test]
    fn forged_universe_spanning_every_id_is_corrupted_not_an_allocation() {
        // both stages claiming all 2^32 task ids, stage 0 listing the
        // first and the last: a set built from it would span a 512 MiB
        // window, but the payload lists far fewer ids than such a graph
        // has tasks. Stage 1's universe sits after stage 0's universe (8),
        // count (4), 5 members (20) and seven words (56).
        let plan = sample_plan();
        let stage0 = stage_count_offset(&plan) + 4;
        let forged = |universe: u64| {
            let mut bytes = encode_plan(&plan);
            forge(&mut bytes, stage0, &universe.to_le_bytes());
            forge(&mut bytes, stage0 + 88, &universe.to_le_bytes());
            bytes
        };
        let mut bytes = forged(MAX_UNIVERSE as u64);
        forge(&mut bytes, stage0 + 12 + 16, &u32::MAX.to_le_bytes());
        assert_eq!(decode_plan(&bytes).unwrap_err(), PlanIoError::Corrupted);
        // the smallest universe the payload's ids cannot cover
        let ids_left = (encode_plan(&plan).len() - stage0 - 8) / 4;
        assert_eq!(
            decode_plan(&forged(ids_left as u64 + 1)).unwrap_err(),
            PlanIoError::Corrupted
        );
    }

    #[test]
    fn real_plan_roundtrips() {
        use crate::{PartitionConfig, Rannc};
        let g = rannc_models::mlp_graph(&rannc_models::MlpConfig::deep(32, 32, 6, 4));
        let cluster = rannc_hw::ClusterSpec::v100_cluster(1);
        let plan = Rannc::new(PartitionConfig::new(32).with_k(4))
            .partition(&g, &cluster)
            .unwrap();
        let back = decode_plan(&encode_plan(&plan)).unwrap();
        assert_eq!(back.summary(), plan.summary());
    }
}
