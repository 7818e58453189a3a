//! The conformance suite of the lease service's state machine, plus
//! golden wire bytes — captured
//! from the last commit that still had the hand-written server — for
//! every `Request`/`Reply` variant and for the snapshot, so the formats
//! cannot drift.

use amoeba_dir_core::{LeaseMachine, LeaseReply, LeaseRequest};
use amoeba_flip::wire::Wire;
use amoeba_flip::Payload;
use amoeba_rsm::StateMachine;
use amoeba_sim::{Ctx, Simulation};
use amoeba_testkit::{hex, unhex};

// ---------------------------------------------------------------------
// The generic checks.
// ---------------------------------------------------------------------

/// What the lease machine promises:
/// `ops` are replicated ops that leave a non-empty state, `read_only`
/// is an op served behind the read barrier, `golden_snapshot` the
/// expected snapshot bytes after `ops`, and `count_at` the offset of
/// the state's entry count in them.
fn conforms(
    ctx: &Ctx,
    ops: Vec<LeaseRequest>,
    read_only: LeaseRequest,
    golden_snapshot: &str,
    count_at: usize,
) {
    let n = ops.len() as u64;
    let a = LeaseMachine::default();
    for (i, op) in ops.iter().enumerate() {
        a.apply(ctx, 1 + i as u64, &op.encode(), false);
    }
    let (cursor, snap) = a.snapshot(ctx);
    assert_eq!(cursor, n, "{}: snapshot cursor covers every apply", "lease");
    assert_eq!(hex(&snap), golden_snapshot, "{}: snapshot bytes", "lease");

    // Snapshot → install on a fresh machine reproduces state,
    // `update_seq` and the *given* cursor.
    let fresh = LeaseMachine::default();
    assert!(fresh.install(ctx, 77, &snap), "{}: install", "lease");
    assert_eq!(fresh.snapshot(ctx), (77, snap.clone()));
    assert_eq!(fresh.version(), n);
    // A volatile machine keeps no configuration: its replica mourns no one.
    assert_eq!(fresh.boot(ctx), None);

    // Truncated snapshots, trailing bytes and a count with nothing
    // behind it are refused — the last without reserving for the claim
    // (u32::MAX entries would abort the test) — and leave the machine
    // untouched.
    let mut bad: Vec<Vec<u8>> = (0..snap.len()).map(|cut| snap[..cut].to_vec()).collect();
    bad.push([&snap[..], &[0]].concat());
    let mut overclaim = snap[..count_at].to_vec();
    overclaim.extend_from_slice(&u32::MAX.to_le_bytes());
    bad.push(overclaim);
    for bytes in bad {
        let refused = !fresh.install(ctx, 5, &Payload::from(bytes.clone()));
        assert!(refused, "{}: installed {}", "lease", hex(&bytes));
    }
    assert_eq!(fresh.snapshot(ctx), (77, snap.clone()));

    // A malformed op — undecodable bytes, or a read-only op in the
    // replicated stream — still consumes its slot and replies Malformed.
    for (k, op) in [Payload::from(vec![0xEE, 1, 2]), read_only.encode()]
        .iter()
        .enumerate()
    {
        let seq = n + 1 + k as u64;
        let reply = a.apply(ctx, seq, op, true);
        assert_eq!(
            reply,
            LeaseReply::Malformed.encode(),
            "{}: malformed reply",
            "lease"
        );
        assert_eq!(a.snapshot(ctx).0, seq, "{}: slot consumed", "lease");
        assert_eq!(a.version(), seq);
    }

    // The read-only op is answered from local state; replicated ops
    // are not.
    assert!(a.read(|state| state.read(&read_only)).is_some());
    assert!(a.read(|state| state.read(&ops[0])).is_none());

    // `persist` sets the cursor absolutely (a new instance's order
    // restarts), a reset's `persist` passes the cursor unchanged and
    // leaves it alone, and a membership event at `seq` advances it to
    // cover `seq`.
    a.persist(ctx, 2, &[true; 3], false);
    assert_eq!(a.snapshot(ctx).0, 2);
    a.persist(ctx, 2, &[true; 3], false);
    assert_eq!(a.snapshot(ctx).0, 2);
    a.persist(ctx, 9, &[true; 3], false);
    assert_eq!(a.snapshot(ctx).0, 9);
    assert_eq!(a.version(), n + 2, "cursor moves only");
}

/// Golden bytes: `value` encodes to exactly `golden`, and `golden`
/// decodes back to `value`.
fn golden<T: Wire + PartialEq + std::fmt::Debug>(table: &[(T, &str)]) {
    for (value, bytes) in table {
        assert_eq!(&hex(&value.encode()), bytes, "{value:?} encodes");
        assert_eq!(&T::decode(&unhex(bytes)).unwrap(), value, "{bytes} decodes");
        let trailing = [&unhex(bytes)[..], &[0]].concat();
        assert!(T::decode(&trailing).is_err(), "{value:?} + trailing byte");
    }
    assert!(T::decode(&[]).is_err(), "empty input");
    assert!(T::decode(&[99]).is_err(), "unknown tag");
}

// ---------------------------------------------------------------------
// The lease service.
// ---------------------------------------------------------------------

#[test]
fn the_lease_service_conforms() {
    let mut sim = Simulation::new(7);
    let out = sim.spawn("conformance", |ctx| {
        let name = |s: &str| s.to_owned();
        conforms(
            ctx,
            vec![
                LeaseRequest::Grant {
                    name: name("b"),
                    owner: 2,
                    ttl: 10,
                },
                LeaseRequest::Grant {
                    name: name("a"),
                    owner: 1,
                    ttl: 10,
                },
                LeaseRequest::Release {
                    name: name("zz"),
                    owner: 1,
                },
            ],
            LeaseRequest::Query { name: name("a") },
            "0300000000000000030000000000000002000000\
             010000006101000000000000000c00000000000000\
             010000006202000000000000000b00000000000000",
            16,
        );
    });
    sim.run();
    assert_eq!(out.take(), Some(()), "conformance run did not finish");
}

#[test]
fn wire_bytes_match_the_hand_written_servers() {
    let name = |s: &str| s.to_owned();
    golden(&[
        (
            LeaseRequest::Grant {
                name: name("mig:1:2"),
                owner: 77,
                ttl: 32,
            },
            "01070000006d69673a313a324d000000000000002000000000000000",
        ),
        (
            LeaseRequest::Release {
                name: name("mig:1:2"),
                owner: 77,
            },
            "02070000006d69673a313a324d00000000000000",
        ),
        (LeaseRequest::Query { name: name("x") }, "030100000078"),
    ]);
    golden(&[
        (LeaseReply::Granted { expires: 40 }, "012800000000000000"),
        (
            LeaseReply::Busy {
                holder: 9,
                expires: 40,
            },
            "0209000000000000002800000000000000",
        ),
        (LeaseReply::Ok, "03"),
        (LeaseReply::NotHeld, "04"),
        (
            LeaseReply::Held {
                holder: 9,
                expires: 40,
            },
            "0509000000000000002800000000000000",
        ),
        (LeaseReply::Free, "06"),
        (LeaseReply::Malformed, "07"),
        (LeaseReply::NoMajority, "08"),
    ]);
}
