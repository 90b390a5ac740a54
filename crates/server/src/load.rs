//! The hospital load a server is driven with.
//!
//! [`LoadConfig`] names a [`ShardedHospital`] workload over the served
//! topology; [`schedule`] flattens its arrivals into one open-loop list of
//! `(offset_us, plan)` pairs, each keeping the virtual timestamp the
//! workload's Poisson process assigned it. The server binary takes its
//! schema from the same configuration, so plans generated here always match
//! what is served. [`percentile`] is the rank rule latency reports use.

use threev_model::{Topology, TxnPlan};
use threev_shard::ShardedHospital;
use threev_sim::SimDuration;
use threev_workload::HospitalWorkload;

/// Shape of the generated load.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Partition count of the target cluster.
    pub partitions: u16,
    /// Nodes per partition of the target cluster.
    pub nodes_per_partition: u16,
    /// Poisson arrival rate, transactions per second.
    pub rate_tps: f64,
    /// Length of the arrival window.
    pub duration: SimDuration,
    /// Percentage of read-only transactions.
    pub read_pct: u8,
    /// Workload RNG seed.
    pub seed: u64,
}

impl LoadConfig {
    /// The hospital workload this configuration describes, sharded over
    /// the target topology (one department per database node).
    pub fn hospital(&self) -> ShardedHospital {
        let topology = Topology::new(self.partitions, self.nodes_per_partition);
        let base = HospitalWorkload {
            departments: self.partitions * self.nodes_per_partition,
            patients: 64,
            rate_tps: self.rate_tps,
            read_pct: self.read_pct,
            max_fanout: 3,
            duration: self.duration,
            zipf_s: 0.9,
            seed: self.seed,
        };
        ShardedHospital::new(base, topology)
    }
}

/// All arrivals of the sharded workload, flattened to
/// `(offset_us, plan)` and sorted by offset — the open-loop schedule.
pub fn schedule(hospital: &ShardedHospital) -> Vec<(u64, TxnPlan)> {
    let mut all: Vec<(u64, TxnPlan)> = hospital
        .arrivals()
        .into_iter()
        .flatten()
        .map(|a| (a.at.0, a.plan))
        .collect();
    all.sort_by_key(|(at, _)| *at);
    all
}

/// `q`-quantile (0 < q ≤ 1) of an ascending latency list; 0 when empty.
pub fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (q * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_the_right_ranks() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 0.999), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn schedule_is_sorted_and_complete() {
        let cfg = LoadConfig {
            partitions: 2,
            nodes_per_partition: 2,
            rate_tps: 2_000.0,
            duration: SimDuration::from_millis(50),
            read_pct: 20,
            seed: 0x10AD,
        };
        let hospital = cfg.hospital();
        let jobs = schedule(&hospital);
        let direct: usize = hospital.arrivals().iter().map(Vec::len).sum();
        assert_eq!(jobs.len(), direct);
        assert!(!jobs.is_empty(), "50ms at 2k tps must produce arrivals");
        assert!(jobs.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by time");
    }
}
