//! # amoeba-group — reliable, totally-ordered group communication
//!
//! A from-scratch implementation of Amoeba's group-communication
//! primitives (Kaashoek & Tanenbaum, ICDCS '91), the substrate the ICDCS
//! '93 fault-tolerant directory service is built on:
//!
//! | Paper primitive (Fig. 1) | Here |
//! |---|---|
//! | `CreateGroup` | [`GroupPeer::create`] |
//! | `JoinGroup` | [`GroupPeer::join`] |
//! | `LeaveGroup` | [`Group::leave`] |
//! | `SendToGroup` | [`Group::send`] |
//! | `ReceiveFromGroup` | [`Group::recv`] |
//! | `ResetGroup` | [`Group::reset`] |
//! | `GetInfoGroup` | [`Group::info`] |
//!
//! **Guarantees.** All members observe all events (messages and membership
//! changes) in one total order. With resilience degree *r*, a completed
//! `send` survives up to *r* member crashes. On failure the group refuses
//! further traffic until `reset` rebuilds it from the surviving members,
//! which recover any in-flight tail of the order from the most up-to-date
//! member before resuming.
//!
//! **Mechanism.** A sequencer (lowest member id) assigns sequence numbers.
//! Small messages take the PB path (point-to-point to the sequencer, which
//! multicasts an accept carrying the data — 5 packets for n=3, r=2, §3.1 of
//! the '93 paper); large messages take the BB path (sender multicasts data,
//! sequencer multicasts a short accept). Gaps are repaired by
//! retransmission; liveness comes from heartbeats.
//!
//! **Layout.** The protocol is a pure state machine, one per group
//! instance per member, in the private `instance` module: messages and
//! clock ticks in, actions (packets, deliveries, completions) out. Its
//! roles each have a file: `sequencer` (ordering, batching, the window,
//! joins), `member` (receiving, acking, gap recovery), `send` (the
//! application's sends and their retries) and `reset` (failure and
//! `ResetGroup`). [`GroupPeer`] runs the instances of one machine as
//! kernel handlers and executes their actions; [`Group`] is the blocking
//! application interface over it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod config;
mod error;
mod instance;
mod msg;
mod peer;
mod types;

pub use api::Group;
pub use config::GroupConfig;
pub use error::GroupError;
pub use instance::GroupStats;
pub use msg::{AcceptBody, AcceptItem, DoneItem, GroupMsg};
pub use peer::{GroupPeer, GROUP_PORT};
pub use types::{
    GroupEvent, GroupInfo, GroupStatus, Incarnation, MemberId, MemberInfo, SeqNo, View,
};
