//! The generic replication driver: one [`Replica`] per machine runs
//! recovery, the group event loop with apply batching, and the
//! initiator-side blocking primitives.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_flip::Payload;
use amoeba_group::{Group, GroupError, GroupEvent, GroupPeer, GroupStatus, SeqNo, View};
use amoeba_rpc::{RpcClient, RpcNode, RpcServer};
use amoeba_sim::{Ctx, IdMap, MailboxTx, NodeId, Spawn};

use crate::config::RsmConfig;
use crate::machine::{RsmError, StateMachine, Upkeep};
use crate::recovery::{persist, run_recovery, serve_internal};

/// Most consecutive delivered operations applied as one batch before
/// the single group-commit [`flush`](StateMachine::flush).
const APPLY_BATCH: usize = 32;

/// How a blocked initiator wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    Applied,
    Aborted,
}

/// Which of [`DriverShared`]'s cursors a wait is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    Applied,
    Published,
}

/// Replica operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Recovering,
    Normal,
}

/// Per-replica counters of the driver's work, exposed through
/// [`Replica::stats`]. Every [`Replica`] has its own — a machine
/// running several replicated services (or several shards of one) gets
/// one set per group, never aggregated across groups, so a shard's
/// throughput can be read off directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Operations submitted through this replica's [`Replica::submit`].
    pub submitted: u64,
    /// Operations this replica applied to its state machine.
    pub applied: u64,
    /// Apply batches (one durable flush each).
    pub batches: u64,
    /// Initiator waits aborted by a group collapse.
    pub aborted: u64,
    /// Completed recovery passes (1 after a clean start).
    pub recoveries: u64,
    /// Always 0. Nothing in the driver can stall on a window any more;
    /// the field stays only because the frozen `perfbench/` reads it,
    /// until a `benchmark` PR drops its row.
    pub window_stalls: u64,
    /// Always 0, kept for the same reader as
    /// [`window_stalls`](Self::window_stalls): every batch is flushed
    /// inline, so [`batches`](Self::batches) is the flush count.
    pub flush_runs: u64,
}

/// Driver-owned mutable state. Lock discipline: never hold across a
/// blocking simulator call. Its two cursors are vsr-rs's `op_number` /
/// `commit_number`: a batch moves the applied one after its applies
/// and the published one after its flush.
pub(crate) struct DriverShared {
    pub mode: Mode,
    pub group: Option<Rc<Group>>,
    /// The replica's durable configuration vector (`config[i]` = server
    /// *i* was in the last configuration this replica served in), the
    /// source of its mourned set: loaded once from
    /// [`StateMachine::boot`], replaced at every
    /// [`persist`](StateMachine::persist). Empty until `boot` returns.
    pub config: Vec<bool>,
    /// Work counters for [`Replica::stats`].
    pub stats: ReplicaStats,
    /// Highest sequence number *applied*, flushed or not. Readers and
    /// ordered-only submitters wait on this.
    pub applied_seq: SeqNo,
    /// Highest sequence number *published*: applied AND covered by a
    /// group-commit flush. Durable submitters wait on this, never on the
    /// raw apply cursor, so they cannot observe un-flushed state.
    pub published_seq: SeqNo,
    /// Readers and ordered-only submitters waiting for `applied_seq` to
    /// reach a target.
    pub readers: Vec<(SeqNo, MailboxTx<Wake>)>,
    /// Initiators waiting for `published_seq` to reach a target.
    pub waiters: Vec<(SeqNo, MailboxTx<Wake>)>,
    /// Apply replies of the operations *this replica* submitted, by
    /// sequence number, stored as the batch is applied, until the
    /// submitting thread takes its own ([`Replica::submit`] and
    /// [`Replica::submit_ordered`] are the only readers). Sequence
    /// numbers restart with every group instance, so the map is emptied
    /// when a new instance is installed.
    pub results: IdMap<SeqNo, Payload>,
}

impl DriverShared {
    fn new() -> DriverShared {
        DriverShared {
            mode: Mode::Recovering,
            group: None,
            config: Vec::new(),
            stats: ReplicaStats::default(),
            applied_seq: 0,
            published_seq: 0,
            readers: Vec::new(),
            waiters: Vec::new(),
            results: IdMap::default(),
        }
    }

    /// Recovery is over: serve on `group`. It is a new instance, whose
    /// sequence numbers restart, so no reply of the previous one may be
    /// found under them. They are dropped here and not where the
    /// collapse aborts the waiters: the loop can publish a batch and
    /// find the group dead in one activation, and a submitter that
    /// publish woke takes its reply only when it next runs — at the
    /// same simulated instant, which recovery never ends in.
    fn enter_instance(&mut self, group: Rc<Group>) {
        self.group = Some(group);
        self.mode = Mode::Normal;
        self.stats.recoveries += 1;
        self.results.clear();
    }

    /// Wakes every reader and waiter satisfied by its cursor, in the
    /// order they arrived.
    fn wake(&mut self) {
        for (list, cursor) in [
            (&mut self.readers, self.applied_seq),
            (&mut self.waiters, self.published_seq),
        ] {
            list.retain(|(target, tx)| {
                let satisfied = *target <= cursor;
                if satisfied {
                    tx.send(Wake::Applied);
                }
                !satisfied
            });
        }
    }

    /// Sets both cursors to `seq`: recovery aligned the machine with a
    /// new instance's order, or installed a snapshot covering up to it.
    pub(crate) fn set_cursors(&mut self, seq: SeqNo) {
        self.applied_seq = seq;
        self.published_seq = seq;
    }

    /// Aborts every reader and waiter (the group collapsed).
    fn abort_waiters(&mut self) {
        self.stats.aborted += (self.readers.len() + self.waiters.len()) as u64;
        for (_, tx) in self.readers.drain(..).chain(self.waiters.drain(..)) {
            tx.send(Wake::Aborted);
        }
    }

    /// Backstop against replies nobody comes for. A live submitter
    /// always takes its own the moment it runs, so the map normally
    /// holds a handful of entries — but "submitted here" is read off
    /// the sender's tag, the replica index, which survives a reboot: a
    /// message the machine's previous incarnation left in the order is
    /// applied with `reply` set and its entry has no claimant.
    fn prune_results(&mut self) {
        if self.results.len() > 4096 {
            let cutoff = self.published_seq.saturating_sub(2048);
            self.results.retain(|seq, _| *seq > cutoff);
        }
    }
}

/// Everything needed to start one replica of a replicated service.
pub struct ReplicaDeps<S> {
    /// Deployment configuration.
    pub cfg: RsmConfig,
    /// The machine this replica runs on.
    pub sim_node: NodeId,
    /// RPC kernel of the machine (internal recovery traffic).
    pub rpc: RpcNode,
    /// Group-communication kernel of the machine.
    pub peer: GroupPeer,
    /// The service's state machine.
    pub sm: Rc<S>,
}

impl<S> std::fmt::Debug for ReplicaDeps<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReplicaDeps(replica {})", self.cfg.me)
    }
}

/// Handle to one running replica. Cloning is cheap; any thread on the
/// machine may call [`submit`](Replica::submit) (returns once its
/// operation is applied and flushed here),
/// [`submit_ordered`](Replica::submit_ordered) (once it is applied) and
/// [`read_barrier`](Replica::read_barrier).
pub struct Replica<S> {
    cfg: RsmConfig,
    sm: Rc<S>,
    shared: Rc<RefCell<DriverShared>>,
    /// Host address of the machine, as the telemetry track id.
    machine: u64,
}

impl<S> Clone for Replica<S> {
    fn clone(&self) -> Self {
        Replica {
            cfg: self.cfg.clone(),
            sm: Rc::clone(&self.sm),
            shared: Rc::clone(&self.shared),
            machine: self.machine,
        }
    }
}

impl<S> std::fmt::Debug for Replica<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Replica({})", self.cfg.me)
    }
}

impl<S: StateMachine> Replica<S> {
    /// Starts all driver processes of one replica: the always-on
    /// internal recovery RPC service, the machine's periodic
    /// [`upkeep`](StateMachine::upkeep) if it has one, and the main
    /// (recovery → event loop) process, in that order.
    pub fn start(spawner: &(impl Spawn + ?Sized), deps: ReplicaDeps<S>) -> Replica<S> {
        let ReplicaDeps {
            cfg,
            sim_node,
            rpc,
            peer,
            sm,
        } = deps;
        let shared = Rc::new(RefCell::new(DriverShared::new()));
        let replica = Replica {
            cfg: cfg.clone(),
            sm: Rc::clone(&sm),
            shared: Rc::clone(&shared),
            machine: u64::from(rpc.addr().0),
        };

        // Internal (replica-to-replica) RPC service: recovery info
        // exchange and state transfer. Always answered, even while
        // recovering.
        {
            let srv = RpcServer::new(&rpc, cfg.internal_ports[cfg.me]);
            let sm = Rc::clone(&sm);
            let shared = Rc::clone(&shared);
            let n = cfg.n;
            spawner.spawn_boxed(
                Some(sim_node),
                &format!("rsm{}-internal", cfg.me),
                Box::new(move |ctx| serve_internal(ctx, &srv, &*sm, &shared, n)),
            );
        }

        // The machine's background storage work, on its schedule, read
        // once: a periodic one runs in a process of its own, beside the
        // event loop; an idle one runs on the event loop.
        let upkeep = sm.upkeep();
        if let Some(Upkeep::Every(period)) = upkeep {
            let sm = Rc::clone(&sm);
            let shared = Rc::clone(&shared);
            let machine = replica.machine;
            spawner.spawn_boxed(
                Some(sim_node),
                &format!("rsm{}-checkpoint", cfg.me),
                Box::new(move |ctx| {
                    let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
                    loop {
                        ctx.sleep(period);
                        if shared.borrow_mut().mode != Mode::Normal {
                            continue; // recovery owns the disk right now
                        }
                        let span = tele.begin_child(
                            "rsm.checkpoint",
                            machine,
                            amoeba_telemetry::TraceCtx::NONE,
                        );
                        sm.tend(ctx);
                        tele.end(span);
                    }
                }),
            );
        }

        // Main process: recovery, then the group event loop, forever.
        {
            let rpc_client = RpcClient::new(&rpc);
            let replica = replica.clone();
            spawner.spawn_boxed(
                Some(sim_node),
                &format!("rsm{}-main", cfg.me),
                Box::new(move |ctx| replica.main_loop(ctx, &peer, &rpc_client, upkeep)),
            );
        }
        replica
    }

    /// The state machine this replica drives.
    pub fn machine(&self) -> &Rc<S> {
        &self.sm
    }

    /// Whether the replica is in normal operation.
    pub fn is_normal(&self) -> bool {
        self.shared.borrow().mode == Mode::Normal
    }

    /// Highest published (applied + flushed) sequence number.
    pub fn published_seq(&self) -> SeqNo {
        self.shared.borrow().published_seq
    }

    /// Replies applied here that their submitting thread has not taken
    /// yet: 0 whenever no [`submit`](Replica::submit) is in flight.
    #[doc(hidden)]
    pub fn unclaimed_results(&self) -> usize {
        self.shared.borrow().results.len()
    }

    /// A snapshot of this replica's work counters. Counters are scoped
    /// to this replica (= this group) alone: services running several
    /// replicas per machine — e.g. one per directory shard — read each
    /// shard's numbers independently.
    pub fn stats(&self) -> ReplicaStats {
        self.shared.borrow().stats
    }

    /// The underlying group's engine counters (`None` while recovering
    /// or after the group dissolved).
    pub fn group_stats(&self) -> Option<amoeba_group::GroupStats> {
        let group = self.shared.borrow().group.clone();
        group.and_then(|g| g.stats())
    }

    /// Replicates `op` through the group and blocks until this
    /// replica has applied it and made it durable (group commit);
    /// returns the state machine's reply.
    ///
    /// # Errors
    ///
    /// [`RsmError::NotInService`] when recovering or without a
    /// majority; [`RsmError::Aborted`] if the group collapsed while
    /// the operation was in flight.
    pub fn submit(&self, ctx: &Ctx, op: impl Into<Payload>) -> Result<Payload, RsmError> {
        self.submit_traced(ctx, op, amoeba_telemetry::TraceCtx::NONE)
    }

    /// [`submit`](Replica::submit) carrying the caller's causal-trace
    /// context through the group's ordering protocol; every replica's
    /// apply span parents to the sequencer's ordering span.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Replica::submit).
    pub fn submit_traced(
        &self,
        ctx: &Ctx,
        op: impl Into<Payload>,
        trace: amoeba_telemetry::TraceCtx,
    ) -> Result<Payload, RsmError> {
        self.submit_until(ctx, op.into(), trace, Cursor::Published)
    }

    /// [`submit_traced`](Replica::submit_traced) for an operation that
    /// needs ordering but not durability: it returns once this replica
    /// has *applied* it, while its batch may still be flushing. The
    /// caller must keep whatever it serves off that batch's unflushed
    /// state itself, as a reader does.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Replica::submit).
    pub fn submit_ordered(
        &self,
        ctx: &Ctx,
        op: impl Into<Payload>,
        trace: amoeba_telemetry::TraceCtx,
    ) -> Result<Payload, RsmError> {
        self.submit_until(ctx, op.into(), trace, Cursor::Applied)
    }

    /// Sends `op` and takes its reply once `cursor` covers it.
    fn submit_until(
        &self,
        ctx: &Ctx,
        op: Payload,
        trace: amoeba_telemetry::TraceCtx,
        cursor: Cursor,
    ) -> Result<Payload, RsmError> {
        let (group, _) = self.serving_group()?;
        self.shared.borrow_mut().stats.submitted += 1;
        let seq = group
            .send_traced(ctx, op, trace)
            .map_err(|_| RsmError::NotInService)?;
        self.wait(ctx, seq, cursor, false)?;
        let result = self.shared.borrow_mut().results.remove(&seq);
        result.ok_or(RsmError::ResultLost)
    }

    /// The Fig. 5 read path: drains everything the kernel has ordered
    /// before us ("wait until seqno == buffered_seqno") and returns that
    /// target, once every operation up to it is *applied* here. The last
    /// batch may still be flushing: a durable machine keeps its reads off
    /// that batch's state, calling [`wait_published`](Replica::wait_published)
    /// where it must.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Replica::submit).
    pub fn read_barrier(&self, ctx: &Ctx) -> Result<SeqNo, RsmError> {
        let (_, status) = self.serving_group()?;
        let target = status.highest_contiguous;
        self.wait(ctx, target, Cursor::Applied, true)?;
        Ok(target)
    }

    /// Blocks a reader until every operation up to `target` is applied
    /// *and flushed* here.
    ///
    /// # Errors
    ///
    /// [`RsmError::Aborted`] if the group collapsed meanwhile.
    pub fn wait_published(&self, ctx: &Ctx, target: SeqNo) -> Result<(), RsmError> {
        self.wait(ctx, target, Cursor::Published, true)
    }

    /// The serving group handle and the status it passed the majority
    /// check with.
    fn serving_group(&self) -> Result<(Rc<Group>, GroupStatus), RsmError> {
        let group = {
            let shared = self.shared.borrow();
            if shared.mode != Mode::Normal {
                return Err(RsmError::NotInService);
            }
            match &shared.group {
                Some(g) => Rc::clone(g),
                None => return Err(RsmError::NotInService),
            }
        };
        match group.status() {
            Ok(s) if !s.failed && s.members >= self.cfg.majority() => Ok((group, s)),
            _ => Err(RsmError::NotInService),
        }
    }

    /// Blocks until `cursor` reaches `target`. A read's wait that blocks
    /// is an `rsm.read_wait` span under the caller's ambient context; a
    /// submitter's is covered by its op's apply (and flush) spans.
    fn wait(&self, ctx: &Ctx, target: SeqNo, cursor: Cursor, read: bool) -> Result<(), RsmError> {
        let rx = {
            let mut shared = self.shared.borrow_mut();
            let shared = &mut *shared;
            let (at, list) = match cursor {
                Cursor::Applied => (shared.applied_seq, &mut shared.readers),
                Cursor::Published => (shared.published_seq, &mut shared.waiters),
            };
            if at >= target {
                return Ok(());
            }
            let (tx, rx) = ctx.reply_channel();
            list.push((target, tx));
            rx
        };
        let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
        let parent = if read {
            amoeba_telemetry::current_ctx()
        } else {
            amoeba_telemetry::TraceCtx::NONE
        };
        let span = tele.begin_child("rsm.read_wait", self.machine, parent);
        let wake = rx.recv(ctx);
        tele.end(span);
        match wake {
            Wake::Applied => Ok(()),
            Wake::Aborted => Err(RsmError::Aborted),
        }
    }

    // ------------------------------------------------------------------
    // The driver main process.
    // ------------------------------------------------------------------

    /// Recovery → normal operation → (on collapse) recovery, forever.
    fn main_loop(&self, ctx: &Ctx, peer: &GroupPeer, rpc: &RpcClient, upkeep: Option<Upkeep>) {
        // Load whatever survived the reboot, once.
        let config = self.sm.boot(ctx);
        self.shared.borrow_mut().config = config;
        loop {
            let group = run_recovery(ctx, &*self.sm, &self.cfg, &self.shared, peer, rpc);
            let group = Rc::new(group);
            self.shared.borrow_mut().enter_instance(Rc::clone(&group));
            self.event_loop(ctx, &group, upkeep);
            // Collapsed: back to recovery.
            {
                let mut shared = self.shared.borrow_mut();
                shared.mode = Mode::Recovering;
                shared.group = None;
                shared.abort_waiters();
            }
        }
    }

    /// The group event loop — the paper's group thread (§3.1, Fig. 5).
    /// Returns when the group is beyond repair (full recovery required).
    ///
    /// Each iteration collects a batch of delivered operations, applies
    /// it, stores its local replies, wakes its readers and ordered-only
    /// submitters, makes it durable with one inline
    /// [`flush`](StateMachine::flush) and only then publishes it, so
    /// [`submit`](Replica::submit) callers never observe un-flushed
    /// state.
    fn event_loop(&self, ctx: &Ctx, group: &Rc<Group>, upkeep: Option<Upkeep>) {
        loop {
            // A machine with no idle work sets no timer: the wait ends
            // only with the group's next event.
            let first = match upkeep {
                Some(Upkeep::WhenIdle(quiet)) => match group.recv_timeout(ctx, quiet) {
                    Some(e) => e,
                    None => {
                        self.sm.tend(ctx);
                        continue;
                    }
                },
                _ => group.recv(ctx),
            };
            // Collect a batch: the first event plus every consecutive
            // already-delivered message, up to the apply-batch cap.
            // Membership events and errors end the batch (processed
            // after the batch commits).
            let me = self.cfg.me as u64;
            // (seq, submitted by this replica, op, ordering context)
            let mut msgs: Vec<(SeqNo, bool, Payload, amoeba_telemetry::TraceCtx)> = Vec::new();
            let mut tail: Option<Result<GroupEvent, GroupError>> = None;
            let mut next = Some(first);
            loop {
                match next {
                    // Recovery joins and creates the group with the
                    // replica index as this member's tag.
                    Some(Ok(GroupEvent::Message {
                        seq,
                        from_tag,
                        data,
                        trace,
                        ..
                    })) => msgs.push((seq, from_tag == me, data, trace)),
                    Some(other) => {
                        tail = Some(other);
                        break;
                    }
                    None => break,
                }
                if msgs.len() >= APPLY_BATCH || group.pending_events() == 0 {
                    break;
                }
                next = group.recv_timeout(ctx, Duration::ZERO);
            }

            let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
            let covered = self.shared.borrow().published_seq;
            // Ops already covered by a fetched state snapshot are skipped.
            msgs.retain(|(seq, ..)| *seq > covered);
            // Only the submitting replica's thread reads a reply
            // ([`Replica::submit`]), so only its replies are built and
            // kept.
            let mut results: Vec<(SeqNo, Payload)> = Vec::new();
            for (seq, local, data, trace) in &msgs {
                let span = tele.begin_child("rsm.apply", self.machine, *trace);
                let reply = self.sm.apply(ctx, *seq, data, *local);
                tele.end(span);
                if *local {
                    results.push((*seq, reply));
                }
            }
            if let Some(&(last, ..)) = msgs.last() {
                {
                    let mut shared = self.shared.borrow_mut();
                    shared.applied_seq = shared.applied_seq.max(last);
                    shared.results.extend(results);
                    shared.prune_results();
                    shared.wake();
                }
                // One group-commit flush, then publish. Every op of the
                // batch waits for the same flush, so each gets the span
                // (under its own ordering context, like its apply span).
                let spans: Vec<_> = msgs
                    .iter()
                    .map(|(.., trace)| tele.begin_child("rsm.flush", self.machine, *trace))
                    .collect();
                self.sm.flush(ctx);
                for span in spans {
                    tele.end(span);
                }
                let mut shared = self.shared.borrow_mut();
                shared.stats.applied += msgs.len() as u64;
                shared.stats.batches += 1;
                shared.published_seq = shared.published_seq.max(last);
                shared.wake();
            }

            match tail {
                None => {}
                Some(Ok(GroupEvent::Message { .. })) => unreachable!("messages batch above"),
                Some(Ok(GroupEvent::Joined { seq, .. }))
                | Some(Ok(GroupEvent::Left { seq, .. })) => {
                    let view = group.info().map(|i| i.view).unwrap_or_default();
                    let cursor = self.shared.borrow().applied_seq.max(seq);
                    persist(
                        ctx,
                        &*self.sm,
                        &self.shared,
                        cursor,
                        &self.config_of(&view),
                        false,
                    );
                    let mut shared = self.shared.borrow_mut();
                    shared.applied_seq = cursor;
                    shared.published_seq = shared.published_seq.max(seq);
                    shared.wake();
                }
                Some(Ok(GroupEvent::ResetDone { view, .. })) => {
                    // A reset consumes no slot: record the new
                    // configuration only.
                    let cursor = self.shared.borrow().applied_seq;
                    persist(
                        ctx,
                        &*self.sm,
                        &self.shared,
                        cursor,
                        &self.config_of(&view),
                        false,
                    );
                }
                Some(Err(GroupError::Failed)) => {
                    // Rebuild a majority of the group; if that fails,
                    // fall back to full recovery.
                    match group.reset(ctx, self.cfg.majority(), Duration::from_secs(3)) {
                        Ok(_info) => continue, // ResetDone event follows
                        Err(_) => return,
                    }
                }
                Some(Err(_)) => return, // dead / expelled: recovery
            }
        }
    }

    /// Maps a view onto the configuration vector (`config[i]` ⇔ the
    /// replica whose application tag is `i` is a member).
    fn config_of(&self, view: &View) -> Vec<bool> {
        let mut config = vec![false; self.cfg.n];
        for m in &view.members {
            if (m.tag as usize) < self.cfg.n {
                config[m.tag as usize] = true;
            }
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_flip::{NetParams, Network, Port};
    use amoeba_group::GroupConfig;
    use amoeba_sim::Simulation;

    #[test]
    fn publishing_wakes_the_satisfied_waiters_in_arrival_order_and_keeps_the_rest() {
        let mut sim = Simulation::new(1);
        let mut shared = DriverShared::new();
        let (log_tx, log_rx) = sim.channel::<(SeqNo, Wake)>();
        // Arrival order is not target order.
        for target in [5, 2, 9, 3, 2] {
            let (tx, rx) = sim.channel::<Wake>();
            shared.waiters.push((target, tx));
            let log = log_tx.clone();
            sim.spawn(&format!("waiter-{target}"), move |ctx| {
                log.send((target, rx.recv(ctx)))
            });
        }
        shared.published_seq = 3;
        shared.wake();
        let left: Vec<SeqNo> = shared.waiters.iter().map(|(t, _)| *t).collect();
        assert_eq!(left, [5, 9]);
        sim.run();
        let woken: Vec<_> = std::iter::from_fn(|| log_rx.try_recv()).collect();
        assert_eq!(
            woken,
            [(2, Wake::Applied), (3, Wake::Applied), (2, Wake::Applied)]
        );

        shared.abort_waiters();
        assert!(shared.waiters.is_empty());
        assert_eq!(shared.stats.aborted, 2);
        sim.run();
        let aborted: Vec<_> = std::iter::from_fn(|| log_rx.try_recv()).collect();
        assert_eq!(aborted, [(5, Wake::Aborted), (9, Wake::Aborted)]);
    }

    #[test]
    fn a_batch_wakes_its_readers_at_apply_and_its_submitters_at_publish() {
        let mut sim = Simulation::new(1);
        let mut shared = DriverShared::new();
        let (log_tx, log_rx) = sim.channel::<(&str, Wake)>();
        let park = |who: &'static str, list: &mut Vec<(SeqNo, MailboxTx<Wake>)>| {
            let (tx, rx) = sim.channel::<Wake>();
            list.push((4, tx));
            let log = log_tx.clone();
            sim.spawn(who, move |ctx| log.send((who, rx.recv(ctx))));
        };
        park("reader", &mut shared.readers);
        park("submitter", &mut shared.waiters);
        park("late reader", &mut shared.readers);
        let mut woken = || {
            sim.run();
            std::iter::from_fn(|| log_rx.try_recv()).collect::<Vec<_>>()
        };

        // The event loop's order: the batch's applies, then its flush.
        shared.applied_seq = 4;
        shared.wake();
        assert_eq!(
            woken(),
            [("reader", Wake::Applied), ("late reader", Wake::Applied)]
        );
        shared.published_seq = 4;
        shared.wake();
        assert_eq!(woken(), [("submitter", Wake::Applied)]);

        // A collapse aborts both lists.
        let (tx, _rx) = sim.channel::<Wake>();
        shared.readers.push((9, tx.clone()));
        shared.waiters.push((9, tx));
        shared.abort_waiters();
        assert!(shared.readers.is_empty() && shared.waiters.is_empty());
        assert_eq!(shared.stats.aborted, 2);
    }

    #[test]
    fn replies_outlive_the_collapse_but_not_the_next_instance() {
        let sim = Simulation::new(1);
        let net = Network::new(sim.handle(), NetParams::default(), 1);
        let peer = GroupPeer::start(&sim, sim.add_node("m"), net.attach(), GroupConfig::lan());
        let mut shared = DriverShared::new();
        shared.enter_instance(Rc::new(peer.create(Port::from_name("first"), 0)));
        shared.published_seq = 7;
        shared.results.insert(7, Payload::from(vec![1]));

        // The collapse arm of `main_loop`: the submitter of op 7 was
        // woken by its publish and has yet to run.
        shared.mode = Mode::Recovering;
        shared.group = None;
        shared.abort_waiters();
        assert_eq!(shared.results.remove(&7), Some(Payload::from(vec![1])));

        // Nobody came for this one; in the next instance 8 is another op.
        shared.results.insert(8, Payload::from(vec![2]));
        shared.enter_instance(Rc::new(peer.create(Port::from_name("second"), 0)));
        assert!(shared.results.is_empty());
        assert_eq!((shared.mode, shared.stats.recoveries), (Mode::Normal, 2));
    }
}
