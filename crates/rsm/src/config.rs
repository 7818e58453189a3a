//! Static configuration of one replicated service.

use std::time::Duration;

use amoeba_flip::Port;

/// Everything the [`Replica`](crate::Replica) driver needs to know
/// about the deployment: who the replicas are, which ports they use,
/// and the recovery rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsmConfig {
    /// Total number of replicas.
    pub n: usize,
    /// This replica's index in `0..n`.
    pub me: usize,
    /// The FLIP port the replica group forms on.
    pub group_port: Port,
    /// The internal (replica-to-replica) RPC port of each replica,
    /// used by the recovery protocol's exchanges and state transfer.
    pub internal_ports: Vec<Port>,
    /// When set, a background checkpointer process calls
    /// [`StateMachine::checkpoint`](crate::StateMachine::checkpoint)
    /// this often while the replica is in normal operation (the group
    /// log's table writeback). `None` (the default) spawns nothing.
    pub checkpoint_interval: Option<Duration>,
    /// Idle time after which [`idle`](crate::StateMachine::idle) runs,
    /// for a machine that has idle work. `None` (the default): the
    /// event loop waits for the group without a deadline, and `idle` is
    /// never called.
    pub idle_timeout: Option<Duration>,
    /// Enable the §3.2 improved rule: a replica that stayed up and
    /// holds the highest sequence number may recover even when the
    /// strict last-set check fails.
    pub improved_recovery: bool,
}

impl RsmConfig {
    /// A standard configuration for replica `me` of `n`, deriving the
    /// group and internal ports from `service` (a name unique to this
    /// service, e.g. `"amoeba.dir"`).
    ///
    /// # Panics
    ///
    /// Panics if `me >= n`.
    pub fn new(service: &str, n: usize, me: usize) -> RsmConfig {
        assert!(me < n, "replica index out of range");
        RsmConfig {
            n,
            me,
            group_port: Port::from_name(&format!("{service}.group")),
            internal_ports: (0..n)
                .map(|i| Port::from_name(&format!("{service}.internal.{i}")))
                .collect(),
            checkpoint_interval: None,
            idle_timeout: None,
            improved_recovery: false,
        }
    }

    /// Replicas needed for a majority.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_distinct_per_replica_and_service() {
        let a = RsmConfig::new("svc.a", 3, 0);
        let b = RsmConfig::new("svc.b", 3, 0);
        assert_ne!(a.group_port, b.group_port);
        assert_ne!(a.internal_ports[0], a.internal_ports[1]);
        assert_ne!(a.internal_ports[0], b.internal_ports[0]);
    }

    #[test]
    fn majority_is_floor_half_plus_one() {
        assert_eq!(RsmConfig::new("s", 3, 0).majority(), 2);
        assert_eq!(RsmConfig::new("s", 2, 0).majority(), 2);
        assert_eq!(RsmConfig::new("s", 5, 4).majority(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let _ = RsmConfig::new("s", 3, 3);
    }
}
