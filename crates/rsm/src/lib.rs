//! # amoeba-rsm — a replicated-state-machine API over the group layer
//!
//! The ICDCS '93 paper's central claim is that totally-ordered group
//! communication makes fault-tolerant services *easy to build*. This
//! crate is that claim turned into an API: implement [`StateMachine`]
//! and a [`Replica`] gives you a fully fault-tolerant, actively
//! replicated service — join/create, majority rule, view-change
//! bookkeeping, Skeen-style recovery with state transfer, and **apply
//! batching** (group commit) — with zero group-protocol code of your
//! own. The directory service in `amoeba-dir-core` implements the trait.
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
//! * recovery's bookkeeping: the replica's **configuration vector**
//!   (loaded once from [`StateMachine::boot`], replaced at every
//!   membership change and every entry into service), the **mourned
//!   set** Skeen's algorithm computes from it, both cursors, and the
//!   moments the copy-in-progress mark is set and cleared;
//! * initiator bookkeeping: [`Replica::submit`] blocks a caller until
//!   its operation has been applied *and made durable* locally,
//!   [`Replica::submit_ordered`] only until it has been applied, and
//!   [`Replica::read_barrier`] implements the Fig. 5 read path (drain
//!   everything the kernel has ordered before us);
//! * **apply batching**: consecutive delivered operations are applied
//!   as one batch followed by a single [`StateMachine::flush`] — the
//!   group commit that amortizes per-update storage cost.
//!
//! The **state machine** owns everything service-shaped: deterministic
//! apply, storage, snapshot encoding, its logical
//! [`version`](StateMachine::version), and the durable form of what
//! the driver decides. The one bookkeeping hook,
//! [`persist`](StateMachine::persist), is exactly the point where the
//! paper's directory service writes its commit block: it sets the
//! applied cursor and makes the configuration and the copy mark
//! durable. A service with no durable state would only move its cursor
//! there and return no configuration from `boot`, so its replica would
//! mourn no one.
//!
//! ## Contract (what `Replica` guarantees, what `apply` must uphold)
//!
//! 1. **Total order.** `apply(seq, …)` is called exactly once per
//!    sequence number, in ascending order, on every replica, with the
//!    same bytes. `apply` must be deterministic: same state + same op
//!    ⇒ same new state and same reply on every replica. Only one
//!    replica is ever *asked* for the reply — the one whose thread
//!    called [`Replica::submit`], told so by `apply`'s `reply` flag;
//!    the others execute the same bytes and return nothing. State,
//!    cursor and effects must not depend on the flag.
//! 2. **Group commit.** One or more `apply` calls are followed by one
//!    durable [`StateMachine::flush`], inline on the event loop — the
//!    paper's group thread (§3.1, Fig. 5). The driver *publishes* a
//!    batch — wakes submitters — only after its flush returns, so a
//!    caller of [`Replica::submit`] never observes a state that is not
//!    locally durable, and a crash between `apply` and flush only ever
//!    loses *unacknowledged* operations. Readers unblock earlier, once
//!    the batch is applied: a machine whose flush yields keeps its reads
//!    off unflushed state itself, calling [`Replica::wait_published`]
//!    where it must (the directory service's `unflushed` map is the
//!    example). The one exception among submitters is
//!    [`Replica::submit_ordered`], for an operation that needs its place
//!    in the order but nothing durable (the directory service's lease
//!    grant): it wakes with the readers, its reply stored at apply, and
//!    its caller keeps what it serves off unflushed state as a reader
//!    does. Both cursors advance strictly in seqno order, one batch at a
//!    time; nothing is applied while a flush is in progress.
//! 3. **Batch atomicity.** A state machine whose flush cannot make a
//!    multi-operation batch durable atomically must guard it — the
//!    directory service marks its commit block so a crash mid-flush is
//!    recognised at next boot (in-place flush), or journals the batch
//!    as one checksummed record (group log) — because recovery must
//!    never observe a *hole*: an applied suffix with a missing middle.
//!    Membership changes and recovery run on the same process as the
//!    loop, so they never find a flush in flight.
//! 4. **Snapshots.** `snapshot` returns the applied-cursor and encoded
//!    state read atomically (one critical section), so an installer can
//!    skip every operation the snapshot already covers and replay only
//!    what follows. `install(cursor, state)` must leave the machine
//!    exactly as if it had applied the order up to `cursor`.
//!
//! ## Using it
//!
//! A service implements [`StateMachine`] and hands it to
//! [`Replica::start`]; any request thread then calls
//! [`Replica::submit`] for a replicated write and
//! [`Replica::read_barrier`] before a local read. A volatile service
//! does the same with the durable half left out; there is no separate
//! harness for one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod machine;
mod recovery;
mod replica;

pub use config::RsmConfig;
pub use machine::{RsmError, StateMachine};
pub use recovery::InternalMsg;
pub use replica::{Replica, ReplicaDeps, ReplicaStats};
