//! Device-group placement tables: the per-slot memory and speed the
//! stage DP prices a placed stage against.
//!
//! Algorithm 1 treats the device pool as interchangeable: a stage using
//! `d − d′` devices is priced once, independent of *which* devices it
//! lands on. On a heterogeneous cluster that is no longer true — a stage
//! placed on a 16 GB tier must obey that tier's memory, and one placed
//! on a throttled part runs slower.
//!
//! A [`SlotTable`] bridges the gap without touching the stage-cost
//! memo. The planner's device-assignment convention is *contiguous*
//! ([`ClusterSpec::slot_devices`] owns it): within one pipeline replica,
//! stage boundaries chop the slot range `[0, D)` left to right, and
//! replica `r` of the pipeline occupies global ranks `r·D + slot`. So DP
//! cell `(s, b, d)` with predecessor `d′` always places a stage on slots
//! `[d′, d)` — a position the DP knows — and the table answers, in O(1):
//!
//! * the *tightest memory* any replica of those slots offers, and
//! * the *worst compute slow-down* versus the template device.
//!
//! Both are folded over all `R` pipeline replicas, so one table covers
//! the whole tier. Costs stay memoised position-independently; the
//! position-dependent memory test and time scale are applied *after*
//! the memo lookup. Every tier of every cluster is planned through a
//! table: a homogeneous cluster is the case with no overrides, where the
//! scale is exactly `1.0` and the memory bound equals the template's,
//! so the placed DP gives the paper's plain DP bit for bit.

use rannc_hw::{ClusterSpec, DeviceSpec, Precision};

/// Per-slot conservative memory/speed summary for one node tier
/// (`D` devices per pipeline replica × `R` replicas).
#[derive(Debug, Clone)]
pub struct SlotTable {
    devices: usize,
    /// `range_mem[a·(D+1)+b]`: min memory over slots `[a, b)`, bytes.
    range_mem: Vec<usize>,
    /// `range_scale[a·(D+1)+b]`: max time scale over slots `[a, b)`.
    range_scale: Vec<f64>,
}

impl SlotTable {
    /// Build the table for a tier: `devices` slots per pipeline replica,
    /// `replica_factor` replicas, priced against `template` at
    /// `precision`. The slots map to devices through
    /// [`ClusterSpec::slot_devices`].
    pub fn build(
        cluster: &ClusterSpec,
        devices: usize,
        replica_factor: usize,
        template: &DeviceSpec,
        precision: Precision,
    ) -> SlotTable {
        let mut mem = vec![usize::MAX; devices];
        let mut scale = vec![0.0f64; devices];
        for (slot, (m, sc)) in mem.iter_mut().zip(scale.iter_mut()).enumerate() {
            for (_, d) in cluster.slot_devices(slot..slot + 1, devices, replica_factor.max(1)) {
                *m = (*m).min(d.memory_bytes);
                *sc = (*sc).max(d.time_scale_vs(template, precision));
            }
        }
        // O(D²) range fold so the DP's inner loop pays O(1) per lookup
        let w = devices + 1;
        let mut range_mem = vec![usize::MAX; w * w];
        let mut range_scale = vec![0.0f64; w * w];
        for a in 0..devices {
            let mut m = usize::MAX;
            let mut sc = 0.0f64;
            for b in a + 1..=devices {
                m = m.min(mem[b - 1]);
                sc = sc.max(scale[b - 1]);
                range_mem[a * w + b] = m;
                range_scale[a * w + b] = sc;
            }
        }
        SlotTable {
            devices,
            range_mem,
            range_scale,
        }
    }

    /// Slots per pipeline replica.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Tightest memory any replica of slots `[from, to)` offers.
    #[inline]
    pub fn group_mem(&self, from: usize, to: usize) -> usize {
        debug_assert!(from < to && to <= self.devices);
        self.range_mem[from * (self.devices + 1) + to]
    }

    /// Worst compute slow-down versus the template over slots
    /// `[from, to)`. Exactly `1.0` when every device matches the
    /// template.
    #[inline]
    pub fn group_scale(&self, from: usize, to: usize) -> f64 {
        debug_assert!(from < to && to <= self.devices);
        self.range_scale[from * (self.devices + 1) + to]
    }

    /// The least compute slow-down of any one slot versus the template:
    /// below `1.0` when some slot is faster, and never above any
    /// [`SlotTable::group_scale`].
    pub fn fastest_scale(&self) -> f64 {
        (0..self.devices)
            .map(|a| self.group_scale(a, a + 1))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rannc_hw::DeviceRank;

    fn v100() -> DeviceSpec {
        DeviceSpec::v100_32gb()
    }

    #[test]
    fn uniform_cluster_scales_exactly_one() {
        let c = ClusterSpec::v100_cluster(2);
        let t = SlotTable::build(&c, 8, 2, &v100(), Precision::FP32);
        for a in 0..8 {
            for b in a + 1..=8 {
                assert_eq!(t.group_scale(a, b).to_bits(), 1.0f64.to_bits());
                assert_eq!(t.group_mem(a, b), v100().memory_bytes);
            }
        }
    }

    #[test]
    fn name_only_overrides_stay_exactly_one() {
        // functionally identical devices tagged with a different name
        // must not perturb a single bit of the priced plan
        let mut tagged = v100();
        tagged.name = "V100-rack-B".into();
        let mut c = ClusterSpec::v100_cluster(1);
        for local in 0..8 {
            c = c.with_device_override(DeviceRank { node: 0, local }, tagged.clone());
        }
        assert!(c.is_heterogeneous());
        let t = SlotTable::build(&c, 8, 1, &v100(), Precision::FP32);
        for a in 0..8 {
            assert_eq!(t.group_scale(a, 8).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn group_folds_worst_slot_across_replicas() {
        let small = v100().with_memory(16 * (1 << 30));
        let mut slow = v100();
        slow.compute_efficiency *= 0.5;
        // replica 1 of slot 2 is small; replica 0 of slot 5 is slow
        let c = ClusterSpec::v100_cluster(2)
            .with_device_override(DeviceRank { node: 1, local: 2 }, small.clone())
            .with_device_override(DeviceRank { node: 0, local: 5 }, slow.clone());
        let t = SlotTable::build(&c, 8, 2, &v100(), Precision::FP32);
        assert_eq!(t.group_mem(2, 3), small.memory_bytes);
        assert_eq!(t.group_mem(3, 5), v100().memory_bytes);
        assert!((t.group_scale(5, 6) - 2.0).abs() < 1e-12);
        assert_eq!(t.group_scale(0, 2).to_bits(), 1.0f64.to_bits());
        // group spanning both picks the worst of each quantity
        assert_eq!(t.group_mem(0, 8), small.memory_bytes);
        assert!((t.group_scale(0, 8) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_beyond_shape_fold_as_template() {
        let c = ClusterSpec::v100_cluster(1); // 8 devices
                                              // 8 slots × 2 replicas = 16 > 8: the phantom ranks are template
        let t = SlotTable::build(&c, 8, 2, &v100(), Precision::FP32);
        assert_eq!(t.group_mem(0, 8), v100().memory_bytes);
        assert_eq!(t.group_scale(0, 8).to_bits(), 1.0f64.to_bits());
    }
}
