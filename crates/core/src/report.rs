//! One unified, serializable snapshot of a running deployment.
//!
//! Every layer of the stack keeps its own counters — [`NetStats`] on the
//! medium, [`GroupStats`] in each group engine, [`ReplicaStats`] in each
//! RSM driver, [`DiskStats`] on each platter, [`CacheStats`] in each
//! client cache — and before this module every consumer (the benches,
//! the explorer's probe) re-invented its own ad-hoc aggregation over a
//! subset of them. [`ClusterReport::collect`] walks a [`Cluster`] once
//! and snapshots everything per machine, together with the telemetry
//! layer's metrics registry (latency histograms, counters, gauges) when
//! one is installed on the simulation.
//!
//! The report is plain data plus a hand-rolled JSON writer
//! ([`ClusterReport::to_json`]) in the same dependency-free style as the
//! bench summaries; nothing here touches the simulation clock.

use amoeba_flip::NetStats;
use amoeba_group::GroupStats;
use amoeba_rsm::ReplicaStats;
use amoeba_sim::SimHandle;
use amoeba_telemetry::{MetricsSnapshot, Telemetry};

use crate::cache::CacheStats;
use crate::cluster::Cluster;
use amoeba_disk::DiskStats;

/// Per-machine slice of a [`ClusterReport`].
#[derive(Debug, Clone, Default)]
pub struct MachineReport {
    /// The machine's display name (e.g. `dir-s0-1`).
    pub name: String,
    /// The machine's host address.
    pub host: u32,
    /// Directory shard the column serves.
    pub shard: usize,
    /// Replica index within the shard.
    pub index: usize,
    /// RSM driver counters, when a directory server is running.
    pub replica: Option<ReplicaStats>,
    /// Group-engine counters, when the replica is in a group.
    pub group: Option<GroupStats>,
    /// The machine's platter counters.
    pub disk: DiskStats,
}

/// One cluster-wide snapshot: the medium, every column, every observed
/// client cache, and the telemetry metrics registry.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Cumulative medium counters.
    pub net: NetStats,
    /// One entry per replica column, in column order.
    pub machines: Vec<MachineReport>,
    /// Client cache counters, as `(machine_name, stats)` — appended by
    /// the caller via [`add_client`](ClusterReport::add_client) (the
    /// cluster does not keep client handles).
    pub clients: Vec<(String, CacheStats)>,
    /// Latency histograms / counters / gauges from the telemetry layer
    /// (empty when telemetry is disabled).
    pub metrics: MetricsSnapshot,
}

impl ClusterReport {
    /// Snapshots `cluster` and, when telemetry is installed on the
    /// simulation behind `handle`, its metrics registry.
    pub fn collect(cluster: &Cluster, handle: &SimHandle) -> ClusterReport {
        let tele = Telemetry::from_handle(handle);
        let machines = cluster
            .columns
            .iter()
            .map(|c| MachineReport {
                name: format!("dir-s{}-{}", c.shard, c.index),
                host: c.host.0,
                shard: c.shard,
                index: c.index,
                replica: c.server.as_ref().map(|s| s.replica_stats()),
                group: c.server.as_ref().and_then(|s| s.group_stats()),
                disk: c.vdisk.stats(),
            })
            .collect();
        ClusterReport {
            net: cluster.net.stats(),
            machines,
            clients: Vec::new(),
            metrics: tele.metrics(),
        }
    }

    /// Appends one client machine's cache counters.
    pub fn add_client(&mut self, name: &str, stats: CacheStats) {
        self.clients.push((name.to_owned(), stats));
    }

    /// Sums of the headline per-machine counters:
    /// `(ops_applied, group_sends, disk_writes)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        let mut applied = 0;
        let mut sends = 0;
        let mut writes = 0;
        for m in &self.machines {
            if let Some(r) = &m.replica {
                applied += r.applied;
            }
            if let Some(g) = &m.group {
                sends += g.sends;
            }
            writes += m.disk.writes;
        }
        (applied, sends, writes)
    }

    /// Serializes the whole report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"net\": {");
        s.push_str(&format!(
            "\"packets_sent\": {}, \"deliveries\": {}, \"bytes_sent\": {}, \
             \"packets_forwarded\": {}, \"dropped_loss\": {}",
            self.net.packets_sent,
            self.net.deliveries,
            self.net.bytes_sent,
            self.net.packets_forwarded,
            self.net.dropped_loss
        ));
        s.push_str("},\n  \"machines\": [");
        for (i, m) in self.machines.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"host\": {}, \"shard\": {}, \"index\": {}",
                m.name, m.host, m.shard, m.index
            ));
            if let Some(r) = &m.replica {
                s.push_str(&format!(
                    ", \"submitted\": {}, \"applied\": {}, \"batches\": {}, \"recoveries\": {}",
                    r.submitted, r.applied, r.batches, r.recoveries
                ));
            }
            if let Some(g) = &m.group {
                s.push_str(&format!(
                    ", \"group_sends\": {}, \"group_applied\": {}, \"retrans_served\": {}",
                    g.sends, g.applied, g.retrans_served
                ));
            }
            s.push_str(&format!(
                ", \"disk_reads\": {}, \"disk_writes\": {}}}",
                m.disk.reads, m.disk.writes
            ));
        }
        s.push_str("],\n  \"clients\": [");
        for (i, (name, c)) in self.clients.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"name\": \"{name}\", \"hits\": {}, \"misses\": {}, \
                 \"invalidations\": {}, \"renewals\": {}, \"stale_rejects\": {}, \
                 \"renewals_saved\": {}}}",
                c.hits, c.misses, c.invalidations, c.renewals, c.stale_rejects, c.renewals_saved
            ));
        }
        s.push_str("],\n  \"latency_ms\": {");
        let mut first = true;
        for (family, h) in &self.metrics.hists {
            if h.count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!(
                "\"{family}\": {{\"count\": {}, \"p50\": {:.3}, \"p95\": {:.3}, \
                 \"p99\": {:.3}, \"max\": {:.3}}}",
                h.count,
                h.percentile(50.0) as f64 / 1e3,
                h.percentile(95.0) as f64 / 1e3,
                h.percentile(99.0) as f64 / 1e3,
                h.max as f64 / 1e3
            ));
        }
        s.push_str("},\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.metrics.counters {
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{name}\": {v}"));
        }
        s.push_str("}\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_serializes() {
        let r = ClusterReport::default();
        let text = r.to_json();
        let v = amoeba_telemetry::json::parse(&text).expect("valid json");
        assert!(v.get("net").is_some());
        assert!(v.get("machines").and_then(|m| m.as_array()).is_some());
    }

    #[test]
    fn totals_sum_over_machines() {
        let mut r = ClusterReport::default();
        for i in 0..3 {
            r.machines.push(MachineReport {
                name: format!("m{i}"),
                host: i,
                shard: 0,
                index: i as usize,
                replica: Some(ReplicaStats {
                    submitted: 1,
                    applied: 10,
                    batches: 2,
                    aborted: 0,
                    recoveries: 1,
                    window_stalls: 0,
                    flush_runs: 0,
                }),
                group: None,
                disk: DiskStats {
                    reads: 0,
                    writes: 5,
                    blocks: 0,
                    seeks: 0,
                },
            });
        }
        assert_eq!(r.totals(), (30, 0, 15));
    }
}
