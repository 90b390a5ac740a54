//! The names, units and clocks of every metric the benchmark prints.
//!
//! `BENCHMARK.json` at the repository root carries the same names with
//! their direction and regression bound; a unit test keeps the two in step.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time (or a quantity derived from it).
    Wall,
    /// Simulated time inside the deterministic kernel.
    Virtual,
    /// A count or a size; repeats exactly for a given seed unless noted.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
}

const fn wall(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        clock: Clock::Wall,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        clock: Clock::Count,
    }
}

/// What a user of the system sees; printed by every `--trace 0` run.
pub const END_TO_END: [Def; 5] = [
    wall("setup_s", "s"),
    wall("update_p50_us", "us"),
    wall("read_p50_us", "us"),
    wall("committed_per_s", "1/s"),
    wall("peak_rss_mb", "MB"),
];

/// Single layers, plus the user-visible figures that exist on one workload
/// only; printed by every `--trace 1` run (0 where a layer is not on the
/// workload's path).
pub const PER_LAYER: [Def; 58] = [
    wall("load.sched_lag_p99_us", "us"),
    wall("load.gen_s", "s"),
    wall("proto.request_encode_ns", "ns"),
    wall("proto.request_decode_ns", "ns"),
    wall("proto.response_encode_ns", "ns"),
    wall("proto.response_decode_ns", "ns"),
    count("proto.request_bytes", "B"),
    count("proto.response_bytes", "B"),
    wall("server.noop_rtt_p50_us", "us"),
    wall("server.noop_rtt_p99_us", "us"),
    count("server.busy_rejections", "count"),
    wall("server.frontend_share_pct", "%"),
    wall("engine.submit_update_us", "us"),
    wall("engine.submit_update_p50_us", "us"),
    wall("engine.submit_read_us", "us"),
    wall("engine.submit_nc_us", "us"),
    wall("engine.advance_us", "us"),
    wall("engine.overhead_us", "us"),
    wall("engine.fingerprint_ms", "ms"),
    wall("shard.submit_external_us", "us"),
    wall("shard.run_us", "us"),
    wall("shard.run_1part_us", "us"),
    wall("shard.xpart_penalty_us", "us"),
    count("shard.cross_messages_per_txn", "count"),
    count("sim.events_per_txn", "count"),
    count("sim.messages_per_txn", "count"),
    wall("sim.events_per_cpu_s", "1/s"),
    wall("core.cluster_run_us", "us"),
    wall("core.msg_encode_ns", "ns"),
    wall("core.msg_decode_ns", "ns"),
    count("core.msg_bytes", "B"),
    count("core.subtxns_per_txn", "count"),
    count("core.advancement_msgs_per_round", "count"),
    Def {
        name: "core.advancement_virtual_us",
        unit: "us",
        clock: Clock::Virtual,
    },
    count("core.p2_rounds", "count"),
    count("core.nc_commits", "count"),
    count("core.nc_rollbacks", "count"),
    wall("storage.update_ns", "ns"),
    wall("storage.read_ns", "ns"),
    wall("storage.gc_us", "us"),
    count("storage.copies_per_txn", "count"),
    count("storage.dual_writes_per_txn", "count"),
    wall("storage.lock_acquire_ns", "ns"),
    wall("storage.paged_flush_us", "us"),
    count("storage.paged_bytes_per_flush", "B"),
    wall("durability.log_us", "us"),
    wall("durability.sync_us", "us"),
    wall("durability.checkpoint_us", "us"),
    count("durability.wal_bytes_per_txn", "B"),
    count("durability.records_per_txn", "count"),
    wall("durability.replay_records_per_s", "1/s"),
    wall("trace.overhead_pct", "%"),
    wall("nc_p50_us", "us"),
    wall("max_rate_under_slo_tps", "1/s"),
    count("disk_bytes_per_txn", "B"),
    wall("traced.update_p50_us", "us"),
    wall("update_p99_us", "us"),
    wall("read_p99_us", "us"),
];

/// Measured values by metric name, with the sample count behind each.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    /// # Panics
    /// Panics on a name neither table declares: such a value would never
    /// be printed.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// `(value, samples)` of `name`; a layer that is not on the workload's
    /// path reads 0.
    pub fn get_or_zero(&self, name: &str) -> (f64, u64) {
        self.0.get(name).copied().unwrap_or((0.0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(section)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::plans::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }
}
