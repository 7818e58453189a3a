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
//! The replica with the highest logical version then supplies the
//! current state ([`StateMachine::snapshot`] →
//! [`StateMachine::install`]); [`StateMachine::begin_copy`] guards the
//! copy phase against a crash mid-copy. The optional improved rule
//! (§3.2 end) lets a replica that stayed up pair with a rebooted one
//! even when the strict last-set check fails.

use std::time::Duration;

use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Payload;
use amoeba_group::{Group, GroupPeer, SeqNo};
use amoeba_rpc::{RpcClient, RpcServer};
use amoeba_sim::Ctx;
use parking_lot::Mutex;

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

/// Replica-to-replica messages (recovery info exchange, state
/// transfer). Service-agnostic: the state itself is an opaque
/// [`StateMachine`]-encoded payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum InternalMsg {
    /// "exchange info with server s": my mourned set and version.
    Exchange {
        from: u32,
        mourned: Vec<bool>,
        update_seq: u64,
        stayed_up: bool,
    },
    ExchangeReply {
        mourned: Vec<bool>,
        update_seq: u64,
        stayed_up: bool,
    },
    /// "get copies of latest version of the state from s".
    Fetch,
    State {
        instance: u64,
        applied_seq: SeqNo,
        /// The machine's snapshot bytes, shared zero-copy with the
        /// state-transfer wire buffer.
        state: Payload,
    },
    /// The replica cannot answer right now.
    Busy,
}

const I_EXCHANGE: u8 = 1;
const I_EXCHANGE_REPLY: u8 = 2;
const I_FETCH: u8 = 3;
const I_STATE: u8 = 4;
const I_BUSY: u8 = 5;

impl Wire for InternalMsg {
    fn put(&self, w: &mut WireWriter) {
        match self {
            InternalMsg::Exchange {
                from,
                mourned,
                update_seq,
                stayed_up,
            } => {
                w.u8(I_EXCHANGE).u32(*from);
                mourned.put(w);
                w.u64(*update_seq).boolean(*stayed_up);
            }
            InternalMsg::ExchangeReply {
                mourned,
                update_seq,
                stayed_up,
            } => {
                w.u8(I_EXCHANGE_REPLY);
                mourned.put(w);
                w.u64(*update_seq).boolean(*stayed_up);
            }
            InternalMsg::Fetch => {
                w.u8(I_FETCH);
            }
            InternalMsg::State {
                instance,
                applied_seq,
                state,
            } => {
                w.u8(I_STATE).u64(*instance).u64(*applied_seq).bytes(state);
            }
            InternalMsg::Busy => {
                w.u8(I_BUSY);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<InternalMsg, DecodeError> {
        Ok(match r.u8("internal tag")? {
            I_EXCHANGE => InternalMsg::Exchange {
                from: r.u32("from")?,
                mourned: <Vec<bool>>::get(r)?,
                update_seq: r.u64("update seq")?,
                stayed_up: r.boolean("stayed up")?,
            },
            I_EXCHANGE_REPLY => InternalMsg::ExchangeReply {
                mourned: <Vec<bool>>::get(r)?,
                update_seq: r.u64("update seq")?,
                stayed_up: r.boolean("stayed up")?,
            },
            I_FETCH => InternalMsg::Fetch,
            I_STATE => InternalMsg::State {
                instance: r.u64("instance")?,
                applied_seq: r.u64("applied")?,
                state: r.payload("state")?,
            },
            I_BUSY => InternalMsg::Busy,
            _ => return Err(DecodeError::new("internal tag")),
        })
    }
}

/// The always-on internal RPC service of one replica.
pub(crate) fn serve_internal<S: StateMachine>(
    ctx: &Ctx,
    srv: &RpcServer,
    sm: &S,
    shared: &Mutex<DriverShared>,
) {
    loop {
        let incoming = srv.getreq(ctx);
        let reply = match InternalMsg::decode_shared(&incoming.data) {
            Ok(InternalMsg::Exchange { .. }) => {
                let info = sm.recovery_info();
                InternalMsg::ExchangeReply {
                    mourned: info.mourned,
                    update_seq: info.update_seq,
                    stayed_up: shared.lock().stayed_up,
                }
            }
            Ok(InternalMsg::Fetch) => {
                // The machine reads cursor + state in one critical
                // section, so the installer can skip exactly the
                // operations the snapshot covers.
                let (applied_seq, state) = sm.snapshot(ctx);
                let instance = {
                    let shared = shared.lock();
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
    shared: &Mutex<DriverShared>,
    peer: &GroupPeer,
    rpc: &RpcClient,
) -> Group {
    loop {
        // "re-join server group or create it". Join patience grows with
        // the replica index so concurrent cold boots converge on
        // replica 0's instance instead of racing singleton groups.
        let patience = JOIN_TIMEOUT + JOIN_TIMEOUT / 2 * (cfg.me as u32);
        let group = match peer.join(ctx, cfg.group_port, cfg.me as u64, patience) {
            Ok(g) => {
                ctx.trace(format!(
                    "rsm-recovery[{}]: joined instance {}",
                    cfg.me,
                    g.instance_id()
                ));
                g
            }
            Err(_) => {
                let g = peer.create(cfg.group_port, cfg.me as u64);
                ctx.trace(format!(
                    "rsm-recovery[{}]: created instance {}",
                    cfg.me,
                    g.instance_id()
                ));
                g
            }
        };

        // "while (minority && !timeout) GetInfoGroup(&group_state)".
        let deadline = ctx.now() + MAJORITY_TIMEOUT;
        let majority = loop {
            match group.info() {
                Ok(info) if info.view.len() >= cfg.majority() && !info.failed => break true,
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
            ctx.trace(format!("rsm-recovery[{}]: no majority, retrying", cfg.me));
            group.leave(ctx);
            retry_sleep(ctx);
            continue;
        }
        ctx.trace(format!("rsm-recovery[{}]: majority reached", cfg.me));

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
            let (my_mourned, my_seq, my_stayed) = {
                let info = sm.recovery_info();
                let mut mourned = info.mourned;
                mourned.resize(cfg.n, false);
                (mourned, info.update_seq, shared.lock().stayed_up)
            };
            let mut mourned = my_mourned;
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
            ctx.trace(format!(
                "rsm-recovery[{}]: last set {:?} not in newgroup {:?}; waiting",
                cfg.me, last, newgroup
            ));
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
            // Durably mark the copy phase first (crash-mid-copy guard).
            sm.begin_copy(ctx);
            if !fetch_state(ctx, sm, cfg, shared, rpc, best, group.instance_id()) {
                group.leave(ctx);
                retry_sleep(ctx);
                continue;
            }
        } else {
            // We are (among) the most current: align both cursors —
            // the driver's published cursor *and* the machine's
            // applied cursor — with the new instance's order so far.
            // The instance's sequence numbers restart, so a cursor
            // carried over from the previous instance would make our
            // snapshots over-claim coverage and fetching peers would
            // skip real operations.
            if let Ok(hc) = group.info().map(|i| i.highest_contiguous) {
                sm.align_cursor(ctx, hc);
                shared.lock().published_seq = hc;
            }
        }

        ctx.trace(format!(
            "rsm-recovery[{}]: entering normal operation",
            cfg.me
        ));
        // "write commit block; enter normal operation".
        sm.enter_service(ctx, &newgroup);
        return group;
    }
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
    shared: &Mutex<DriverShared>,
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
    shared.lock().published_seq = cursor;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_testkit::{hex, mutants_refused_or_exact, unhex};

    #[test]
    fn internal_msgs_round_trip() {
        let msgs = vec![
            InternalMsg::Exchange {
                from: 1,
                mourned: vec![false, true, false],
                update_seq: 9,
                stayed_up: true,
            },
            InternalMsg::ExchangeReply {
                mourned: vec![true, false],
                update_seq: 3,
                stayed_up: false,
            },
            InternalMsg::Fetch,
            InternalMsg::State {
                instance: 7,
                applied_seq: 5,
                state: vec![1, 2, 3].into(),
            },
            InternalMsg::Busy,
        ];
        for m in msgs {
            assert_eq!(InternalMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    /// Golden bytes of every variant, captured from the hand-written
    /// encoder.
    fn goldens() -> Vec<(InternalMsg, &'static str)> {
        vec![
            (
                InternalMsg::Exchange {
                    from: 1,
                    mourned: vec![false, true, false],
                    update_seq: 9,
                    stayed_up: true,
                },
                "010100000003000100090000000000000001",
            ),
            (
                InternalMsg::ExchangeReply {
                    mourned: vec![true, false],
                    update_seq: 3,
                    stayed_up: false,
                },
                "02020100030000000000000000",
            ),
            (InternalMsg::Fetch, "03"),
            (
                InternalMsg::State {
                    instance: 7,
                    applied_seq: 5,
                    state: vec![1, 2, 3].into(),
                },
                "040700000000000000050000000000000003000000010203",
            ),
            (InternalMsg::Busy, "05"),
        ]
    }

    #[test]
    fn internal_msgs_keep_their_bytes() {
        for (msg, golden) in goldens() {
            assert_eq!(hex(&msg.encode()), golden, "{msg:?}");
            let bytes = Payload::from(unhex(golden));
            assert_eq!(InternalMsg::decode_shared(&bytes), Ok(msg));
            let trailing = Payload::from([&unhex(golden)[..], &[0]].concat());
            assert!(InternalMsg::decode(&trailing).is_err(), "{golden} + a byte");
        }
    }

    #[test]
    fn mutated_internal_msgs_are_refused_or_decode_exactly() {
        for (_, golden) in goldens() {
            mutants_refused_or_exact(&unhex(golden), |b| {
                let msg = InternalMsg::decode(b).ok()?;
                Some(msg.encode().to_vec())
            });
        }
    }

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
