//! The generic recovery protocol: paper Fig. 6, built on Skeen's
//! last-process-to-fail algorithm over *mourned sets* — lifted out of
//! the directory server so every [`StateMachine`] gets it for free.
//!
//! A replica runs this when it boots and whenever its group loses a
//! majority. Two conditions must hold before re-entering service
//! (§3.2):
//!
//! 1. the new group has a **majority** (partition safety), and
//! 2. the new group contains the set of replicas that **possibly
//!    performed the last update** (`last = all − mourned ⊆ newgroup`).
//!
//! Each replica's mourned set is computed here, from the durable
//! configuration vector the driver keeps ([`DriverShared::config`]).
//! The replica with the highest logical version
//! ([`StateMachine::version`]) then supplies the current state
//! ([`StateMachine::snapshot`] → [`StateMachine::install`]); a
//! [`persist`](StateMachine::persist) with the copy mark set guards the
//! copy phase against a crash mid-copy, and one with it clear records
//! the configuration the replica enters service in. The optional
//! improved rule (§3.2 end) lets a replica that stayed up pair with a
//! rebooted one even when the strict last-set check fails.

use std::cell::RefCell;
use std::time::Duration;

use amoeba_flip::wire::Wire;
use amoeba_flip::{wire_enum, Payload};
use amoeba_group::{Group, GroupPeer, SeqNo};
use amoeba_rpc::{RpcClient, RpcServer};
use amoeba_sim::Ctx;

use crate::config::RsmConfig;
use crate::machine::StateMachine;
use crate::replica::DriverShared;

/// How long a recovering replica waits for an existing group to answer
/// its join before founding one; replica `i` waits `1 + i/2` times this,
/// so concurrent cold boots converge on replica 0's instance.
const JOIN_TIMEOUT: Duration = Duration::from_millis(400);
/// How long to wait for a majority to assemble before retrying.
const MAJORITY_TIMEOUT: Duration = Duration::from_millis(1_500);
/// Upper bound of the random dither between recovery retries.
const RETRY_JITTER: Duration = Duration::from_millis(300);

// ---------------------------------------------------------------------
// Internal replica-to-replica protocol.
// ---------------------------------------------------------------------

wire_enum! {
    /// Replica-to-replica messages (recovery info exchange, state
    /// transfer) on a replica's internal RPC port. Service-agnostic: the
    /// state itself is an opaque [`StateMachine`]-encoded payload.
    #[derive(Debug, Clone, PartialEq)]
    pub enum InternalMsg {
        /// "exchange info with server s": my mourned set and version.
        1 => Exchange {
            /// The asking replica's index.
            from: u32,
            /// Its mourned set, one flag per replica.
            mourned: Vec<bool>,
            /// Its logical version.
            update_seq: u64,
            /// Whether it stayed up through the failure (§3.2 improved rule).
            stayed_up: bool,
        },
        /// The answer to an [`Exchange`](InternalMsg::Exchange).
        2 => ExchangeReply {
            /// The answering replica's mourned set.
            mourned: Vec<bool>,
            /// Its logical version.
            update_seq: u64,
            /// Whether it stayed up through the failure.
            stayed_up: bool,
        },
        /// "get copies of latest version of the state from s".
        3 => Fetch,
        /// The answer to a [`Fetch`](InternalMsg::Fetch).
        4 => State {
            /// The group instance the state was read in.
            instance: u64,
            /// The last group slot the state covers.
            applied_seq: SeqNo,
            /// The machine's snapshot bytes, shared zero-copy with the
            /// state-transfer wire buffer.
            state: Payload,
        },
        /// The replica cannot answer right now.
        5 => Busy,
    }
}

/// The always-on internal RPC service of one of `n` replicas.
pub(crate) fn serve_internal<S: StateMachine>(
    ctx: &Ctx,
    srv: &RpcServer,
    sm: &S,
    shared: &RefCell<DriverShared>,
    n: usize,
) {
    loop {
        let incoming = srv.getreq(ctx);
        let reply = match InternalMsg::decode_shared(&incoming.data) {
            Ok(InternalMsg::Exchange { .. }) => {
                let shared = shared.borrow();
                InternalMsg::ExchangeReply {
                    mourned: mourned_set(&shared, n),
                    update_seq: sm.version(),
                    stayed_up: shared.stayed_up,
                }
            }
            Ok(InternalMsg::Fetch) => {
                // The machine reads cursor + state in one critical
                // section, so the installer can skip exactly the
                // operations the snapshot covers.
                let (applied_seq, state) = sm.snapshot(ctx);
                let instance = {
                    let shared = shared.borrow();
                    shared.group.as_ref().map(|g| g.instance_id()).unwrap_or(0)
                };
                InternalMsg::State {
                    instance,
                    applied_seq,
                    state,
                }
            }
            _ => InternalMsg::Busy,
        };
        srv.putrep(&incoming, reply.encode());
    }
}

// ---------------------------------------------------------------------
// The Fig. 6 recovery loop.
// ---------------------------------------------------------------------

/// Runs recovery until this replica may serve again; returns the
/// joined (or created) group.
pub(crate) fn run_recovery<S: StateMachine>(
    ctx: &Ctx,
    sm: &S,
    cfg: &RsmConfig,
    shared: &RefCell<DriverShared>,
    peer: &GroupPeer,
    rpc: &RpcClient,
) -> Group {
    loop {
        // "re-join server group or create it". Join patience grows with
        // the replica index so concurrent cold boots converge on
        // replica 0's instance instead of racing singleton groups.
        let patience = JOIN_TIMEOUT + JOIN_TIMEOUT / 2 * (cfg.me as u32);
        let group = match peer.join(ctx, cfg.group_port, cfg.me as u64, patience) {
            Ok(g) => g,
            Err(_) => peer.create(cfg.group_port, cfg.me as u64),
        };

        // "while (minority && !timeout) GetInfoGroup(&group_state)".
        let deadline = ctx.now() + MAJORITY_TIMEOUT;
        let majority = loop {
            match group.status() {
                Ok(s) if s.members >= cfg.majority() && !s.failed => break true,
                Ok(_) => {}
                Err(_) => break false,
            }
            if ctx.now() >= deadline {
                break false;
            }
            ctx.sleep(Duration::from_millis(50));
        };
        if !majority {
            // "if (minority) try again; leave group and retry".
            group.leave(ctx);
            retry_sleep(ctx);
            continue;
        }

        // Drain membership events so the view is settled for us.
        while group.pending_events() > 0 {
            let _ = group.recv_timeout(ctx, Duration::from_millis(1));
        }

        // Skeen's algorithm: exchange mourned sets and versions. If the
        // last set is not yet covered, Fig. 6 "tries again, waiting for
        // servers from the last set to join the group" — so retry the
        // exchange within the same group for a while before giving up
        // and rebuilding from scratch.
        let skeen_deadline = ctx.now() + MAJORITY_TIMEOUT * 2;
        let outcome = loop {
            let (mut mourned, my_seq, my_stayed) = {
                let shared = shared.borrow();
                (mourned_set(&shared, cfg.n), sm.version(), shared.stayed_up)
            };
            let mut newgroup = vec![false; cfg.n];
            newgroup[cfg.me] = true;
            let mut seqs: Vec<Option<(u64, bool)>> = vec![None; cfg.n];
            seqs[cfg.me] = Some((my_seq, my_stayed));

            let members: Vec<usize> = match group.info() {
                Ok(i) if !i.failed => i
                    .view
                    .members
                    .iter()
                    .map(|m| m.tag as usize)
                    .filter(|t| *t != cfg.me && *t < cfg.n)
                    .collect(),
                _ => break None,
            };
            for s in members {
                let req = InternalMsg::Exchange {
                    from: cfg.me as u32,
                    mourned: mourned.clone(),
                    update_seq: my_seq,
                    stayed_up: my_stayed,
                };
                match rpc.trans(ctx, cfg.internal_ports[s], req.encode()) {
                    Ok(bytes) => {
                        if let Ok(InternalMsg::ExchangeReply {
                            mourned: theirs,
                            update_seq,
                            stayed_up,
                        }) = InternalMsg::decode_shared(&bytes)
                        {
                            // "newgroup[s] = 1; SequenceNo[s] = SeqNr;
                            //  mourned set += received mourned set".
                            newgroup[s] = true;
                            seqs[s] = Some((update_seq, stayed_up));
                            for (i, m) in theirs.iter().enumerate() {
                                if *m && i < cfg.n {
                                    mourned[i] = true;
                                }
                            }
                        }
                    }
                    Err(_) => { /* unreachable member: not added */ }
                }
            }

            // A replica we actually reached is evidently not dead: it
            // must not remain mourned (a mourned vector records who
            // crashed *before* its owner, not who is dead now).
            for (i, in_group) in newgroup.iter().enumerate() {
                if *in_group {
                    mourned[i] = false;
                }
            }

            // "last = all servers − mourned set;
            //  if (last is not subset of new group) try again".
            let last: Vec<usize> = (0..cfg.n).filter(|i| !mourned[*i]).collect();
            let last_ok = last.iter().all(|i| newgroup[*i]);
            let improved_ok = if last_ok {
                true
            } else if cfg.improved_recovery {
                // §3.2: a replica that stayed up holds every update the
                // missing replicas could have performed, provided it
                // has the highest version among the assembled group.
                let max_seq = seqs.iter().flatten().map(|(s, _)| *s).max().unwrap_or(0);
                seqs.iter()
                    .flatten()
                    .any(|(s, stayed)| *stayed && *s >= max_seq)
            } else {
                false
            };
            if improved_ok {
                break Some((newgroup, seqs));
            }
            if ctx.now() >= skeen_deadline {
                break None;
            }
            // Wait for last-set replicas to join this group, then retry.
            ctx.sleep(Duration::from_millis(150));
            while group.pending_events() > 0 {
                let _ = group.recv_timeout(ctx, Duration::from_millis(1));
            }
        };
        let (newgroup, seqs) = match outcome {
            Some(v) => v,
            None => {
                group.leave(ctx);
                retry_sleep(ctx);
                continue;
            }
        };

        // "s = HighestSeq(SequenceNo); get copies from s".
        let my_seq = seqs[cfg.me].map(|(s, _)| s).unwrap_or(0);
        let (best, best_seq) = seqs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(seq, _)| (i, seq)))
            .max_by_key(|(i, seq)| (*seq, usize::MAX - *i))
            .expect("at least ourselves");
        if best != cfg.me && best_seq > my_seq {
            // Durably mark the copy phase first (crash-mid-copy guard);
            // cursor and configuration stay as they are.
            let (cursor, config) = {
                let shared = shared.borrow();
                (
                    shared.applied_seq,
                    shared.config.clone().unwrap_or_default(),
                )
            };
            persist(ctx, sm, shared, cursor, &config, true);
            if !fetch_state(ctx, sm, cfg, shared, rpc, best, group.instance_id()) {
                group.leave(ctx);
                retry_sleep(ctx);
                continue;
            }
        } else if let Ok(hc) = group.status().map(|s| s.highest_contiguous) {
            // We are (among) the most current: align the cursors with
            // the new instance's order so far (the machine's with the
            // persist below). The instance's sequence numbers restart,
            // so a cursor carried over from the previous instance
            // would make our snapshots over-claim coverage and
            // fetching peers would skip real operations.
            shared.borrow_mut().set_cursors(hc);
        }

        // "write commit block; enter normal operation".
        let cursor = shared.borrow().applied_seq;
        persist(ctx, sm, shared, cursor, &newgroup, false);
        return group;
    }
}

/// The replica's mourned set over `n` replicas: `mourned[i]` iff its
/// configuration says server *i* crashed before it (Skeen's initial
/// set, Fig. 6). A replica without a configuration mourns no one.
fn mourned_set(shared: &DriverShared, n: usize) -> Vec<bool> {
    let config = shared.config.as_deref().unwrap_or_default();
    (0..n).map(|i| config.get(i) == Some(&false)).collect()
}

/// Records `config` as the replica's configuration (when its machine
/// keeps one), then has the machine set its cursor to `cursor` and make
/// the configuration and the copy mark durable. The vector changes
/// before the write, so an exchange answered meanwhile mourns by it.
pub(crate) fn persist<S: StateMachine>(
    ctx: &Ctx,
    sm: &S,
    shared: &RefCell<DriverShared>,
    cursor: SeqNo,
    config: &[bool],
    copying: bool,
) {
    if let Some(kept) = shared.borrow_mut().config.as_mut() {
        *kept = config.to_vec();
    }
    sm.persist(ctx, cursor, config, copying);
}

fn retry_sleep(ctx: &Ctx) {
    let jitter = RETRY_JITTER.as_nanos() as u64;
    let d = ctx.with_rng(|r| r.next_below(jitter.max(1)));
    ctx.sleep(Duration::from_millis(50) + Duration::from_nanos(d));
}

/// Fetches the full state from replica `best` and installs it.
fn fetch_state<S: StateMachine>(
    ctx: &Ctx,
    sm: &S,
    cfg: &RsmConfig,
    shared: &RefCell<DriverShared>,
    rpc: &RpcClient,
    best: usize,
    my_instance: u64,
) -> bool {
    let bytes = match rpc.trans(ctx, cfg.internal_ports[best], InternalMsg::Fetch.encode()) {
        Ok(b) => b,
        Err(_) => return false,
    };
    let (instance, applied, state) = match InternalMsg::decode_shared(&bytes) {
        Ok(InternalMsg::State {
            instance,
            applied_seq,
            state,
        }) => (instance, applied_seq, state),
        _ => return false,
    };
    // Only skip replay of already-covered operations when the snapshot
    // is from the instance we joined.
    let cursor = if instance == my_instance { applied } else { 0 };
    if !sm.install(ctx, cursor, &state) {
        return false;
    }
    shared.borrow_mut().set_cursors(cursor);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden bytes of every variant live in the root suite's
    // `tests/wire_formats.rs`.

    #[test]
    fn a_state_transfer_decodes_without_copying_the_state() {
        let wire = InternalMsg::State {
            instance: 7,
            applied_seq: 5,
            state: vec![1, 2, 3].into(),
        }
        .encode();
        let Ok(InternalMsg::State { state, .. }) = InternalMsg::decode_shared(&wire) else {
            panic!("a state message");
        };
        // Tag, instance, cursor and length prefix come first.
        assert_eq!(state.as_ptr(), wire[1 + 8 + 8 + 4..].as_ptr());
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(InternalMsg::decode(&Payload::from(vec![77])).is_err());
        assert!(InternalMsg::decode(&Payload::empty()).is_err());
    }
}
