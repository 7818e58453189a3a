//! # amoeba-rsm — a replicated-state-machine API over the group layer
//!
//! The ICDCS '93 paper's central claim is that totally-ordered group
//! communication makes fault-tolerant services *easy to build*. This
//! crate is that claim turned into an API: implement [`StateMachine`]
//! and a [`Replica`] gives you a fully fault-tolerant, actively
//! replicated service — join/create, majority rule, view-change
//! bookkeeping, Skeen-style recovery with state transfer, and **apply
//! batching** (group commit) — with zero group-protocol code of your
//! own. The directory service in `amoeba-dir-core` implements the trait
//! directly; its volatile auxiliary services (lock, registry, queue,
//! lease) are each just a state and its ops on the [`service`] harness.
//!
//! ## Division of labour
//!
//! The **driver** ([`Replica`]) owns everything protocol-shaped:
//!
//! * the group event loop (`ReceiveFromGroup`), including reset on
//!   failure and fallback to full recovery;
//! * the Fig. 6 recovery protocol: mourned-set exchange over internal
//!   RPC, last-set check (with the §3.2 improved two-server rule),
//!   choice of the most up-to-date member, state fetch/install;
//! * initiator bookkeeping: [`Replica::submit`] blocks a caller until
//!   its operation has been applied *and made durable* locally, and
//!   [`Replica::read_barrier`] implements the Fig. 5 read path (drain
//!   everything the kernel has ordered before us);
//! * **apply batching**: consecutive delivered operations are applied
//!   as one batch followed by a single [`StateMachine::flush`] — the
//!   group commit that amortizes per-update storage cost.
//!
//! The **state machine** owns everything service-shaped: deterministic
//! apply, storage, snapshot encoding, and whatever durable bookkeeping
//! (commit blocks, NVRAM logs) its recovery story needs. The trait's
//! recovery hooks are exactly the points where the paper's directory
//! service touches its commit block, so a service with no durable state
//! (like the lock service) simply leaves the defaults.
//!
//! ## Contract (what `Replica` guarantees, what `apply` must uphold)
//!
//! 1. **Total order.** `apply(seq, …)` is called exactly once per
//!    sequence number, in ascending order, on every replica, with the
//!    same bytes. `apply` must be deterministic: same state + same op
//!    ⇒ same new state and same reply on every replica.
//! 2. **Group commit, pipelined.** One or more `apply` calls are
//!    followed by one durable flush. The driver *publishes* a batch —
//!    wakes submitters, unblocks readers — only after its flush
//!    returns, so a caller of [`Replica::submit`] never observes a
//!    state that is not locally durable, and a crash between `apply`
//!    and flush only ever loses *unacknowledged* operations. With
//!    [`RsmConfig::flush_window`] = 1 (the default) apply and flush
//!    run serially on the event loop. With a window W > 1 the driver
//!    splits into a two-stage pipeline: the event loop applies batch
//!    N+1 (and the sequencer orders N+2…) while a dedicated flusher
//!    retires batch N's flush — up to W sealed batches in flight, each
//!    sealed by [`StateMachine::seal_batch`] immediately after its
//!    applies and made durable by [`StateMachine::flush_staged`] in
//!    seal order. **The publish-after-ordered-flush invariant is
//!    unchanged**: `published_seq` advances strictly in seqno order as
//!    flushes retire, never as applies run ahead, so no client ever
//!    observes un-flushed state and a crash with up to W batches in
//!    flight loses only unacknowledged suffix operations — recovery
//!    salvages exactly the durable prefix. When the flusher falls
//!    behind, it retires every queued sealed batch as one
//!    [`StateMachine::flush_staged_run`] (after a short anticipatory
//!    gather, [`RsmConfig::flush_gather`]) so the machine can merge
//!    their disk work — publishing still happens per batch, in order,
//!    only after the run that covers it returned.
//! 3. **Batch atomicity.** A state machine whose flush cannot make a
//!    multi-operation batch durable atomically must guard it (the
//!    directory service marks its commit block so a crash mid-flush
//!    makes the replica's state "worthless", forcing recovery to copy
//!    from a peer) — recovery must never observe a *hole*: an applied
//!    suffix with a missing middle. In pipelined mode the same guard
//!    covers each staged batch as it flushes; batches not yet staged
//!    to disk need no guard (nothing of them is on disk at all), and
//!    the driver drains the window before any membership or recovery
//!    path touches durable state.
//! 4. **Snapshots.** `snapshot` returns the applied-cursor and encoded
//!    state read atomically (one critical section), so an installer can
//!    skip every operation the snapshot already covers and replay only
//!    what follows. `install(cursor, state)` must leave the machine
//!    exactly as if it had applied the order up to `cursor`.
//!
//! ## Using it
//!
//! A machine with durable state implements [`StateMachine`] and hands
//! it to [`Replica::start`]; any request thread then calls
//! [`Replica::submit`] for a replicated write and
//! [`Replica::read_barrier`] before a local read. A *volatile* service
//! needs none of that: the [`service`] module turns a state and its ops
//! into machine, server and client — its docs define a complete
//! replicated counter as a running example.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod machine;
mod recovery;
mod replica;
pub mod service;

pub use config::RsmConfig;
pub use machine::{RecoveryInfo, RsmError, StateMachine};
pub use replica::{Replica, ReplicaDeps, ReplicaStats};
