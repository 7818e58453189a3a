//! The [`StateMachine`] trait: what a service implements to become a
//! replicated, fault-tolerant service.

use std::time::Duration;

use amoeba_flip::Payload;
use amoeba_group::SeqNo;
use amoeba_sim::Ctx;

/// Errors surfaced by [`Replica::submit`](crate::Replica::submit),
/// [`Replica::read_barrier`](crate::Replica::read_barrier) and
/// [`Replica::wait_published`](crate::Replica::wait_published).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsmError {
    /// The replica is recovering, expelled, or its view lacks a
    /// majority — the service must refuse the operation (Fig. 5's
    /// "if (!majority()) return failure").
    NotInService,
    /// The group collapsed while the operation was in flight; its
    /// outcome is unknown (it may or may not survive recovery).
    Aborted,
    /// The operation was applied but its reply was already pruned
    /// (pathologically slow initiator).
    ResultLost,
}

impl std::fmt::Display for RsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsmError::NotInService => f.write_str("replica not in service (no majority)"),
            RsmError::Aborted => f.write_str("group collapsed mid-operation"),
            RsmError::ResultLost => f.write_str("apply result already pruned"),
        }
    }
}

impl std::error::Error for RsmError {}

/// When the replica driver runs a machine's [`tend`](StateMachine::tend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upkeep {
    /// Every period, from a process of its own, while the replica is in
    /// service. It runs beside `apply` and `flush`, so the machine keeps
    /// its own exclusion and holds no borrow across the work's I/O.
    Every(Duration),
    /// On the event loop, once the group has been quiet this long.
    WhenIdle(Duration),
}

/// A deterministic replicated state machine, driven by a
/// [`Replica`](crate::Replica).
///
/// Methods take `&self`: the machine is shared between the driver's
/// event loop, its internal recovery RPC server, and any service
/// request threads, so implementations keep their own state in
/// (fine-grained) cells. The borrow discipline every implementation must
/// keep: **never block on simulator I/O while holding a borrow** the
/// driver's other processes take (another process's borrow would panic).
///
/// See the [crate docs](crate) for the full contract; in brief:
/// `apply` must be deterministic and record `seq` as its applied
/// cursor in the same critical section that mutates state (so
/// `snapshot` is consistent), and effects may be buffered until the
/// next `flush` — the driver publishes results only after `flush`.
///
/// Background storage work is one hook on the machine's own schedule:
/// [`upkeep`](Self::upkeep) names it, [`tend`](Self::tend) does it. Of
/// the directory service's storage kinds, writing in place has none;
/// the group log checkpoints [`Every`](Upkeep::Every) period, beside
/// `apply` and `flush`; the NVRAM log flushes
/// [`WhenIdle`](Upkeep::WhenIdle) (§4.1), never beside them.
pub trait StateMachine: 'static {
    /// Applies the operation at sequence number `seq` of the total
    /// order. Durable effects may be deferred to [`flush`](Self::flush).
    ///
    /// `reply` says whether anyone will read the return value: the
    /// driver passes `true` only on the replica whose thread submitted
    /// the operation (paper Fig. 5: only the initiating server thread
    /// answers the client). With `true` the machine returns the
    /// (encoded) reply for that thread; with `false` it returns an
    /// empty [`Payload`] and should not spend anything on building or
    /// encoding one — nobody reads the reply of a remote operation.
    /// **State, cursor, simulated time spent and deferred effects must
    /// not depend on `reply`**: it selects what is returned, never what
    /// is done.
    fn apply(&self, ctx: &Ctx, seq: SeqNo, op: &Payload, reply: bool) -> Payload;

    /// Group-commit barrier: make every effect of the `apply` calls
    /// since the previous `flush` durable. Called once per batch,
    /// before the driver publishes the batch (but after it woke the
    /// batch's readers).
    fn flush(&self, ctx: &Ctx);

    /// When the driver runs [`tend`](Self::tend), read once at start.
    /// `None`: never, so it spawns no process and sets no timer for it.
    fn upkeep(&self) -> Option<Upkeep>;

    /// Runs the background work [`upkeep`](Self::upkeep) schedules.
    fn tend(&self, ctx: &Ctx);

    /// Called once, at process start, before the first recovery: load
    /// whatever survived the reboot (commit block, tables, NVRAM log)
    /// and return the durable configuration vector it holds
    /// (`config[i]` = server *i* was in the last configuration this
    /// replica served in). The driver keeps that vector, computes the
    /// recovery protocol's mourned set from it and hands every change
    /// back through [`persist`](Self::persist). A fresh machine returns
    /// the configuration it was created with.
    fn boot(&self, ctx: &Ctx) -> Vec<bool>;

    /// Logical version of the state (the paper's per-directory
    /// "sequence number" generalized): monotone across group
    /// incarnations, used by recovery to elect the state-transfer
    /// source.
    fn version(&self) -> u64;

    /// Encodes the full current state for transfer to a recovering
    /// peer, together with the applied cursor it corresponds to. The
    /// pair must be read in one critical section: every operation
    /// `<= cursor` is reflected in the bytes, none beyond it.
    fn snapshot(&self, ctx: &Ctx) -> (SeqNo, Payload);

    /// Installs a peer's snapshot, replacing local state wholesale
    /// (and persisting it, if this machine is durable). `cursor` is
    /// the applied cursor the driver resolved for the current group
    /// instance (0 if the snapshot predates it); record it as the
    /// applied cursor. Returns false if the snapshot is malformed.
    fn install(&self, ctx: &Ctx, cursor: SeqNo, snap: &Payload) -> bool;

    /// The driver's one bookkeeping hook: set the applied cursor to
    /// exactly `cursor` and make `config` and the copy mark durable
    /// (a machine without durable state keeps `config` in memory).
    ///
    /// The driver calls it at three points, always between batches:
    /// * `copying` true — the copy phase of recovery is about to
    ///   overwrite local state with a peer's: mark the state as
    ///   in-flux, so a crash mid-copy is detected at next boot (the
    ///   paper's `recovering` commit-block flag, §3.2). `config` and
    ///   `cursor` are unchanged.
    /// * `copying` false, at the end of recovery — the replica enters
    ///   service in the configuration `config` and clears any copy
    ///   mark. It is a **new group instance**, whose sequence numbers
    ///   restart, so `cursor` may be lower than before; a cursor
    ///   carried over would make `snapshot` over-claim coverage.
    /// * `copying` false, after a membership event — `config` is the
    ///   new view; `cursor` covers the event's slot (a reset consumes
    ///   none and passes the cursor unchanged).
    fn persist(&self, ctx: &Ctx, cursor: SeqNo, config: &[bool], copying: bool);
}
