//! Tunables for the group protocol.

use std::time::Duration;

use crate::msg::MAX_ACCEPT_BATCH_ITEMS;

/// Most accepts the sequencer coalesces into one multicast. Send
/// requests arriving within one coalescing window are sequenced into a
/// single `AcceptBatch` packet, amortizing per-packet protocol cost
/// across messages (with cumulative acks amortizing the reply
/// direction).
pub(crate) const MAX_BATCH: usize = 16;
// A larger batch would be undecodable and dropped by every member.
const _: () = assert!(MAX_BATCH <= MAX_ACCEPT_BATCH_ITEMS);

/// How long the sequencer may hold a sequenced accept waiting for more
/// to coalesce; the flush also happens as soon as [`MAX_BATCH`] accepts
/// are pending. Well below [`GAP_TIMEOUT`], so held accepts are never
/// mistaken for loss.
pub(crate) const BATCH_DELAY: Duration = Duration::from_micros(500);

/// How often each member's protocol timers (heartbeats, ack and gap
/// retransmissions, failure detection, reset votes) are driven.
pub(crate) const TICK_INTERVAL: Duration = Duration::from_millis(20);

/// A sender retransmits a send still unanswered after this long: its
/// request or an answer was lost, or the sequencer's window was shut.
pub(crate) const ACK_TIMEOUT: Duration = Duration::from_millis(50);

/// A sequence gap that has lasted this long triggers a retransmission
/// request.
pub(crate) const GAP_TIMEOUT: Duration = Duration::from_millis(25);

/// How long a `ResetGroup` coordinator waits for votes. It announces the
/// new view as soon as every member of the old view has voted or been
/// named dead in that incarnation (by its own detector or a
/// `FailNotice`), so the window is only the fallback for a member that
/// nobody suspects and that stays silent. A latched vote for one
/// coordinator expires after two windows.
pub(crate) const RESET_VOTE_WINDOW: Duration = Duration::from_millis(150);

/// Configuration for a group member's protocol engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupConfig {
    /// Requested resilience degree *r*: `SendToGroup` completes only after
    /// at least `r + 1` members hold the message, so it survives `r`
    /// simultaneous crashes (paper §1). Effective resilience is capped at
    /// `view size − 1`.
    pub resilience: u32,
    /// How often the sequencer multicasts heartbeats.
    pub heartbeat_interval: Duration,
    /// Silence longer than this marks a peer dead (group failure).
    pub failure_timeout: Duration,
    /// The sequencer's window, in slots: it admits a new message only
    /// while no member of the view is more than `history` slots behind
    /// the next one, as far as that member's acks tell. Each member keeps
    /// the last `history` accepts for retransmission,
    /// which by the window are all that a lagging member or a reset's
    /// catch-up can ask for; a retransmission request may span no more.
    /// Joins and leaves bypass the window. Each member holds one 64-byte
    /// record per slot, `history + 1` of them in a ring allocated once,
    /// at its first applied slot, and the record pins its accept's
    /// buffer. An r = 0 member acks at least every `history / 4` slots,
    /// only to keep the window moving.
    ///
    /// The default, 64, is the smallest power of two at least three
    /// times the largest lag measured: the sequencer's slot assigned
    /// less the lowest slot every member is known to hold. At
    /// resilience n − 1 a send completes only once every member holds
    /// it, so little is ever outstanding. That lag read 2 (perfbench's
    /// `paper_mix`), 3 (`write_burst`), 4 (`failover`), 6
    /// (`read_cached`), 5 (`explore ci-smoke`), 6 and 8 (the pinned
    /// small and routed sweeps) and 19 (the pinned journaled sweep).
    /// The window never shut in any of them
    /// ([`GroupStats::window_shut`](crate::GroupStats::window_shut)).
    pub history: u64,
    /// Fault-injection self-test knob: re-introduces the pre-fix gap-
    /// recovery retransmission bound (derived from the accept buffer's
    /// last key instead of `highest_seen`), under which an end-of-order
    /// gap produces an empty retransmission request and the member stalls
    /// forever. Exists so `amoeba-explore` can prove its search finds a
    /// known historical bug; never enable outside that harness.
    pub buggy_retrans_bound: bool,
}

impl GroupConfig {
    /// Defaults tuned for the simulated 10 Mbit/s LAN.
    pub fn lan() -> Self {
        GroupConfig {
            resilience: 0,
            heartbeat_interval: Duration::from_millis(100),
            failure_timeout: Duration::from_millis(400),
            history: 64,
            buggy_retrans_bound: false,
        }
    }

    /// LAN defaults with the given resilience degree.
    pub fn with_resilience(r: u32) -> Self {
        GroupConfig {
            resilience: r,
            ..Self::lan()
        }
    }
}

impl Default for GroupConfig {
    fn default() -> Self {
        Self::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_lan() {
        assert_eq!(GroupConfig::default(), GroupConfig::lan());
    }

    #[test]
    fn with_resilience_sets_r() {
        assert_eq!(GroupConfig::with_resilience(2).resilience, 2);
    }
}
