//! One conformance suite for the `amoeba_rsm::service` harness, run
//! over all four services built on it (lock, registry, queue, lease),
//! plus golden wire bytes — captured from the last commit that still
//! had the four hand-written servers — for every `Request`/`Reply`
//! variant and for each service's snapshot, so the formats cannot drift.

use amoeba_dir_core::{
    LeaseReply, LeaseRequest, LeaseService, LockReply, LockRequest, LockService, QueueReply,
    QueueRequest, QueueService, RegistryReply, RegistryRequest, RegistryService,
};
use amoeba_flip::wire::Wire;
use amoeba_flip::{Payload, Port};
use amoeba_rsm::service::{Service, ServiceMachine};
use amoeba_rsm::StateMachine;
use amoeba_sim::{Ctx, Simulation};
use amoeba_testkit::{hex, unhex};

// ---------------------------------------------------------------------
// The generic checks.
// ---------------------------------------------------------------------

/// What the harness promises of any [`Service`], checked on `S`:
/// `ops` are replicated ops that leave a non-empty state, `read_only`
/// is an op served behind the read barrier, `golden_snapshot` the
/// expected snapshot bytes after `ops`, and `count_at` the offset of
/// the state's entry count in them.
fn conforms<S: Service>(
    ctx: &Ctx,
    ops: Vec<S::Request>,
    read_only: S::Request,
    golden_snapshot: &str,
    count_at: usize,
) {
    let n = ops.len() as u64;
    let a = ServiceMachine::<S>::new(3);
    for (i, op) in ops.iter().enumerate() {
        a.apply(ctx, 1 + i as u64, &op.encode(), false);
    }
    let (cursor, snap) = a.snapshot(ctx);
    assert_eq!(cursor, n, "{}: snapshot cursor covers every apply", S::NAME);
    assert_eq!(hex(&snap), golden_snapshot, "{}: snapshot bytes", S::NAME);

    // Snapshot → install on a fresh machine reproduces state,
    // `update_seq` and the *given* cursor.
    let fresh = ServiceMachine::<S>::new(3);
    assert!(fresh.install(ctx, 77, &snap), "{}: install", S::NAME);
    assert_eq!(fresh.snapshot(ctx), (77, snap.clone()));
    assert_eq!(fresh.recovery_info().update_seq, n);
    assert_eq!(fresh.recovery_info().mourned, vec![false; 3]);

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
        assert!(refused, "{}: installed {}", S::NAME, hex(&bytes));
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
        assert_eq!(reply, S::MALFORMED.encode(), "{}: malformed reply", S::NAME);
        assert_eq!(a.snapshot(ctx).0, seq, "{}: slot consumed", S::NAME);
        assert_eq!(a.recovery_info().update_seq, seq);
    }

    // The read-only op is answered from local state; replicated ops
    // are not.
    assert!(a.read(|state| S::read(state, &read_only)).is_some());
    assert!(a.read(|state| S::read(state, &ops[0])).is_none());

    // `align_cursor` sets absolutely (a new instance's order restarts),
    // a reset's `on_membership(0, ..)` leaves the cursor alone, and a
    // membership event at `seq` advances it to cover `seq`.
    a.align_cursor(ctx, 2);
    assert_eq!(a.snapshot(ctx).0, 2);
    a.on_membership(ctx, 0, &[true; 3]);
    assert_eq!(a.snapshot(ctx).0, 2);
    a.on_membership(ctx, 9, &[true; 3]);
    assert_eq!(a.snapshot(ctx).0, 9);
    assert_eq!(a.recovery_info().update_seq, n + 2, "cursor moves only");
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
// The four services.
// ---------------------------------------------------------------------

#[test]
fn all_four_services_conform() {
    let mut sim = Simulation::new(7);
    let out = sim.spawn("conformance", |ctx| {
        let name = |s: &str| s.to_owned();
        conforms::<LockService>(
            ctx,
            vec![
                LockRequest::Acquire {
                    name: name("b"),
                    owner: 2,
                },
                LockRequest::Acquire {
                    name: name("a"),
                    owner: 1,
                },
                LockRequest::Release {
                    name: name("zz"),
                    owner: 1,
                },
            ],
            LockRequest::Query { name: name("a") },
            "030000000000000002000000\
             0100000061010000000000000001000000620200000000000000",
            8,
        );
        conforms::<RegistryService>(
            ctx,
            vec![
                RegistryRequest::Register {
                    name: name("b"),
                    port: Port::from_raw(2),
                },
                RegistryRequest::Register {
                    name: name("a"),
                    port: Port::from_raw(1),
                },
                RegistryRequest::Unregister { name: name("zz") },
            ],
            RegistryRequest::Lookup { name: name("a") },
            "030000000000000002000000\
             0100000061010000000000000001000000620200000000000000",
            8,
        );
        conforms::<QueueService>(
            ctx,
            vec![
                QueueRequest::Enqueue {
                    queue: name("b"),
                    item: vec![2],
                },
                QueueRequest::Enqueue {
                    queue: name("a"),
                    item: vec![1],
                },
                QueueRequest::Enqueue {
                    queue: name("a"),
                    item: vec![3, 4],
                },
            ],
            QueueRequest::Peek { queue: name("a") },
            "030000000000000002000000\
             0100000061020000000100000001020000000304\
             0100000062010000000100000002",
            8,
        );
        conforms::<LeaseService>(
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
            LockRequest::Acquire {
                name: name("a/b"),
                owner: 9,
            },
            "0103000000612f620900000000000000",
        ),
        (
            LockRequest::Release {
                name: name("x"),
                owner: 1,
            },
            "0201000000780100000000000000",
        ),
        (LockRequest::Query { name: name("q") }, "030100000071"),
    ]);
    golden(&[
        (LockReply::Ok, "01"),
        (LockReply::Held(5), "020500000000000000"),
        (LockReply::Free, "03"),
        (LockReply::Busy(7), "040700000000000000"),
        (LockReply::NotHeld, "05"),
        (LockReply::Malformed, "06"),
        (LockReply::NoMajority, "07"),
    ]);
    golden(&[
        (
            RegistryRequest::Register {
                name: name("svc/dir"),
                port: Port::from_raw(0x1122_3344_5566),
            },
            "01070000007376632f6469726655443322110000",
        ),
        (
            RegistryRequest::Unregister { name: name("x") },
            "020100000078",
        ),
        (RegistryRequest::Lookup { name: name("q") }, "030100000071"),
    ]);
    golden(&[
        (RegistryReply::Ok, "01"),
        (
            RegistryReply::Bound(Port::from_raw(55)),
            "023700000000000000",
        ),
        (RegistryReply::Unbound, "03"),
        (
            RegistryReply::Conflict(Port::from_raw(9)),
            "040900000000000000",
        ),
        (RegistryReply::Malformed, "05"),
        (RegistryReply::NoMajority, "06"),
    ]);
    golden(&[
        (
            QueueRequest::Enqueue {
                queue: name("jobs"),
                item: vec![1, 2, 3],
            },
            "01040000006a6f627303000000010203",
        ),
        (
            QueueRequest::Dequeue {
                queue: name("jobs"),
            },
            "02040000006a6f6273",
        ),
        (QueueRequest::Peek { queue: name("q") }, "030100000071"),
    ]);
    golden(&[
        (QueueReply::Ok, "01"),
        (QueueReply::Item(vec![9]), "020100000009"),
        (QueueReply::Empty, "03"),
        (QueueReply::Malformed, "04"),
        (QueueReply::NoMajority, "05"),
    ]);
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
