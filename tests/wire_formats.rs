//! Golden bytes of everything the directory service sends or stores —
//! every `DirRequest`, `DirReply` and `DirOp` variant (all nine error
//! codes included), a directory file, a replica snapshot and the commit
//! block — captured from the hand-written encoders, so no refactor of
//! the codec can move a byte: simulated time charges every payload by
//! its length.
//!
//! And a mutation fuzz over the message goldens: every truncation,
//! every single-byte substitution and one trailing byte must either be
//! refused or decode to a value that encodes back to exactly the input.

use std::time::Duration;

use amoeba_dirsvc::bullet::BulletClient;
use amoeba_dirsvc::dir::{
    Capability, CommitBlock, DirError, DirOp, DirParams, DirReply, DirRequest, Directory,
    DirectoryStateMachine, Rights, Row, ServiceConfig,
};
use amoeba_dirsvc::disk::{DiskParams, DiskServer, RawPartition, VDisk};
use amoeba_dirsvc::flip::wire::Wire;
use amoeba_dirsvc::flip::{NetParams, Network, Port};
use amoeba_dirsvc::rpc::{RpcClient, RpcNode};
use amoeba_dirsvc::rsm::StateMachine;
use amoeba_dirsvc::sim::{Resource, Simulation};
use amoeba_testkit::{hex, mutants_refused_or_exact, unhex};

/// Checks a table of `(value, golden hex)` for type `$t`: each value
/// encodes to exactly its golden bytes, which decode back to it and are
/// refused with a byte appended. Every mismatch is reported at once.
macro_rules! golden {
    ($t:ty, $table:expr) => {{
        let mut drift = Vec::new();
        for (value, golden) in $table {
            let value: $t = value;
            let bytes = value.encode();
            if hex(&bytes) != golden {
                drift.push(format!("{value:?}\n  encodes {}", hex(&bytes)));
                continue;
            }
            assert_eq!(<$t>::decode(&unhex(golden)).ok(), Some(value), "{golden}");
            let trailing = [&unhex(golden)[..], &[0]].concat();
            assert!(<$t>::decode(&trailing).is_err(), "{golden} + a byte");
        }
        assert!(
            drift.is_empty(),
            "golden bytes moved:\n{}",
            drift.join("\n")
        );
    }};
}

const PORT: Port = Port::from_raw(0xD1);

/// An owner capability: port 0xD1, the object, check 0xC0 + object.
fn cap(object: u64) -> Capability {
    Capability::owner(PORT, object, 0xC0 + object)
}

fn row(name: &str, cap: Capability, col_rights: Vec<Rights>) -> Row {
    Row {
        name: name.into(),
        cap,
        col_rights,
    }
}

fn names(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn requests() -> Vec<(DirRequest, &'static str)> {
    let masks = vec![Rights::ALL, Rights::column(1)];
    vec![
        (
            DirRequest::CreateDir {
                columns: names(&["owner", "other"]),
            },
            "0102050000006f776e6572050000006f74686572",
        ),
        (
            DirRequest::DeleteDir { cap: cap(1) },
            "02d1000000000000000100000000000000ffc100000000000000",
        ),
        (
            DirRequest::ListDir { cap: cap(1) },
            "03d1000000000000000100000000000000ffc100000000000000",
        ),
        (
            DirRequest::AppendRow {
                dir: cap(1),
                name: "x".into(),
                cap: cap(2),
                col_rights: masks.clone(),
            },
            "04d1000000000000000100000000000000ffc1000000000000000100000078d10000000000\
             00000200000000000000ffc20000000000000002ff02",
        ),
        (
            DirRequest::ChmodRow {
                dir: cap(1),
                name: "x".into(),
                col_rights: masks.clone(),
            },
            "05d1000000000000000100000000000000ffc100000000000000010000007802ff02",
        ),
        (
            DirRequest::DeleteRow {
                dir: cap(1),
                name: "x".into(),
            },
            "06d1000000000000000100000000000000ffc1000000000000000100000078",
        ),
        (
            DirRequest::LookupSet {
                items: vec![(cap(1), "a".into()), (cap(3), "b".into())],
            },
            "0702000000d1000000000000000100000000000000ffc1000000000000000100000061d100\
             0000000000000300000000000000ffc3000000000000000100000062",
        ),
        (
            DirRequest::ReplaceSet {
                items: vec![(cap(1), "a".into(), cap(9))],
            },
            "0801000000d1000000000000000100000000000000ffc1000000000000000100000061d100\
             0000000000000900000000000000ffc900000000000000",
        ),
        (
            DirRequest::CreateKeyed {
                columns: names(&["o"]),
                key: 0xFEED,
            },
            "0901010000006fedfe000000000000",
        ),
        (
            DirRequest::AppendLink {
                dir: cap(1),
                name: "x".into(),
                cap: cap(2),
                col_rights: vec![Rights::ALL],
            },
            "0ad1000000000000000100000000000000ffc1000000000000000100000078d10000000000\
             00000200000000000000ffc20000000000000001ff",
        ),
        (
            DirRequest::Unlink {
                dir: cap(1),
                name: "x".into(),
            },
            "0bd1000000000000000100000000000000ffc1000000000000000100000078",
        ),
        (
            DirRequest::ExportDir { cap: cap(1) },
            "0cd1000000000000000100000000000000ffc100000000000000",
        ),
        (
            DirRequest::InstallDir {
                columns: names(&["owner", "other"]),
                rows: vec![
                    row("a", cap(2), masks.clone()),
                    row("b", cap(3), vec![Rights::MODIFY, Rights::NONE]),
                ],
                check: 0xC4EC,
                key: 0x4E1,
            },
            "0d02050000006f776e6572050000006f74686572020000000100000061d10000000000000002\
             00000000000000ffc20000000000000002ff020100000062d100000000000000030000000000\
             0000ffc300000000000000024000ecc4000000000000e104000000000000",
        ),
        (
            DirRequest::InstallStub {
                dir: cap(1),
                to_port: 77,
                to_object: 9,
                expected_seqno: 12,
            },
            "0ed1000000000000000100000000000000ffc1000000000000004d00000000000000090000\
             00000000000c00000000000000",
        ),
        (
            DirRequest::FetchDir {
                cap: cap(1),
                owner: 0xC11E,
                cb_port: 0xCB,
                ttl_us: 250_000,
            },
            "0fd1000000000000000100000000000000ffc1000000000000001ec1000000000000cb0000\
             000000000090d0030000000000",
        ),
    ]
}

fn replies() -> Vec<(DirReply, &'static str)> {
    let restricted = Capability::issue(PORT, 4, 0xC4, Rights::column(0));
    let visible = row("r", restricted, vec![Rights::column(0)]);
    let mut table = vec![
        (
            DirReply::Cap(cap(5)),
            "01d1000000000000000500000000000000ffc500000000000000",
        ),
        (DirReply::Ok, "02"),
        (
            DirReply::Listing {
                columns: names(&["owner"]),
                rows: vec![visible.clone()],
            },
            "0301050000006f776e6572010000000100000072d1000000000000000400000000000000\
             01f9a99105df9e07c40101",
        ),
        (
            DirReply::Caps(vec![Some(cap(1)), None]),
            "040200000001d1000000000000000100000000000000ffc10000000000000000",
        ),
        (
            DirReply::Moved {
                object: 4,
                to_port: 99,
                to_object: 7,
            },
            "06040000000000000063000000000000000700000000000000",
        ),
        (
            DirReply::Export {
                check: 31,
                seqno: 8,
                columns: names(&["owner"]),
                rows: vec![row("r", cap(3), vec![Rights::ALL])],
            },
            "071f00000000000000080000000000000001050000006f776e6572010000000100000072\
             d1000000000000000300000000000000ffc30000000000000001ff",
        ),
        (
            DirReply::Snapshot {
                seqno: 8,
                deadline_us: 1_250_000,
                renewed: true,
                columns: names(&["owner"]),
                rows: vec![visible],
            },
            "080800000000000000d0121300000000000101050000006f776e65720100000001000000\
             72d100000000000000040000000000000001f9a99105df9e07c40101",
        ),
    ];
    let errors = [
        (DirError::NoMajority, "0501"),
        (DirError::BadCapability, "0502"),
        (DirError::NoPermission, "0503"),
        (DirError::DuplicateName, "0504"),
        (DirError::NoSuchName, "0505"),
        (DirError::ColumnMismatch, "0506"),
        (DirError::Malformed, "0507"),
        (DirError::Internal, "0508"),
        (DirError::Stale, "0509"),
    ];
    table.extend(errors.map(|(e, golden)| (DirReply::Err(e), golden)));
    table
}

fn ops() -> Vec<(DirOp, &'static str)> {
    vec![
        (
            DirOp::Create {
                columns: names(&["o"]),
                check: 77,
            },
            "0101010000006f4d00000000000000",
        ),
        (DirOp::Delete { object: 4 }, "020400000000000000"),
        (
            DirOp::Append {
                object: 4,
                name: "x".into(),
                cap: cap(2),
                col_rights: vec![Rights::ALL],
            },
            "0304000000000000000100000078d1000000000000000200000000000000ffc200000000\
             00000001ff",
        ),
        (
            DirOp::Chmod {
                object: 4,
                name: "x".into(),
                col_rights: vec![Rights::NONE, Rights::MODIFY],
            },
            "0404000000000000000100000078020040",
        ),
        (
            DirOp::DeleteRow {
                object: 4,
                name: "x".into(),
            },
            "0504000000000000000100000078",
        ),
        (
            DirOp::ReplaceSet {
                items: vec![(4, "x".into(), cap(3)), (5, "y".into(), cap(6))],
            },
            "060200000004000000000000000100000078d1000000000000000300000000000000ffc3\
             0000000000000005000000000000000100000079d1000000000000000600000000000000\
             ffc600000000000000",
        ),
        (
            DirOp::CreateKeyed {
                columns: names(&["o", "g"]),
                check: 31,
                key: 0xFEED,
            },
            "0702010000006f01000000671f00000000000000edfe000000000000",
        ),
        (
            DirOp::AppendLink {
                object: 4,
                name: "x".into(),
                cap: cap(2),
                col_rights: vec![Rights::ALL],
            },
            "0804000000000000000100000078d1000000000000000200000000000000ffc200000000\
             00000001ff",
        ),
        (
            DirOp::Unlink {
                object: 4,
                name: "x".into(),
            },
            "0904000000000000000100000078",
        ),
        (
            DirOp::InstallDir {
                columns: names(&["owner", "other"]),
                rows: vec![
                    row("a", cap(2), vec![Rights::ALL, Rights::NONE]),
                    row("b", cap(3), vec![Rights::MODIFY, Rights::NONE]),
                ],
                check: 0xC4EC,
                key: 0x4E1,
            },
            "0a02050000006f776e6572050000006f74686572020000000100000061d1000000000000\
             000200000000000000ffc20000000000000002ff000100000062d1000000000000000300\
             000000000000ffc300000000000000024000ecc4000000000000e104000000000000",
        ),
        (
            DirOp::InstallStub {
                object: 4,
                to_port: 77,
                to_object: 9,
                expected_seqno: 12,
            },
            "0b04000000000000004d0000000000000009000000000000000c00000000000000",
        ),
        (
            DirOp::GrantRead {
                cap: cap(1),
                owner: 0xC11E,
                cb_port: 0xCB,
                now_us: 1_000_000,
                deadline_us: 1_250_000,
            },
            "0cd1000000000000000100000000000000ffc1000000000000001ec1000000000000cb00\
             00000000000040420f0000000000d012130000000000",
        ),
    ]
}

fn two_row_directory() -> (Directory, &'static str) {
    let mut dir = Directory::new(names(&["owner", "other"]));
    dir.seqno = 42;
    dir.append_row("hello".into(), cap(1), vec![Rights::ALL, Rights::column(0)])
        .expect("fresh name");
    dir.append_row("world".into(), cap(2), vec![Rights::MODIFY, Rights::NONE])
        .expect("fresh name");
    (
        dir,
        "2a0000000000000002050000006f776e6572050000006f746865720200000005000000\
         68656c6c6fd1000000000000000100000000000000ffc10000000000000002ff01050000\
         00776f726c64d1000000000000000200000000000000ffc200000000000000024000",
    )
}

#[test]
fn every_request_reply_and_op_keeps_its_bytes() {
    golden!(DirRequest, requests());
    golden!(DirReply, replies());
    golden!(DirOp, ops());
}

#[test]
fn a_directory_file_keeps_its_bytes() {
    golden!(Directory, [two_row_directory()]);
}

#[test]
fn the_commit_block_keeps_its_bytes_and_ignores_its_padding() {
    let block = CommitBlock {
        config: vec![true, false, true],
        seqno: 99,
        recovering: true,
        epoch: 17,
    };
    let golden = "43524944030100016300000000000000011100000000000000";
    assert_eq!(hex(&block.encode()), golden);
    assert_eq!(CommitBlock::decode(&unhex(golden), 3), Some(block.clone()));
    // Read back from a zero-padded disk block.
    let padded = [&unhex(golden)[..], &[0; 64]].concat();
    assert_eq!(CommitBlock::decode(&padded, 3), Some(block));
    assert_eq!(CommitBlock::decode(&padded, 2), None, "another group size");
}

/// A replica snapshot holding a directory, a completion record, a
/// forwarding stub and a read lease, and its install on a fresh machine.
#[test]
fn a_replica_snapshot_keeps_its_bytes() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("m");
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let rpc = RpcNode::start(&sim, node, net.attach());
    let disk = DiskServer::start(&sim, node, VDisk::new(64, 4096), DiskParams::instant());
    let cfg = ServiceConfig::new(3, 0);
    let machine = |first_block| {
        DirectoryStateMachine::standalone(
            cfg.clone(),
            DirParams::default(),
            BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
            RawPartition::new(disk.clone(), first_block, 16),
            None,
            None,
            Resource::new(sim.handle(), "cpu"),
        )
    };
    let (sm, fresh) = (machine(0), machine(16));
    let owner = Capability::owner(cfg.public_port, 1, 0xC1);
    let out = sim.spawn_on(node, "replica", move |ctx| {
        let ops = [
            DirOp::Create {
                columns: names(&["owner"]),
                check: 0xC1,
            },
            DirOp::Append {
                object: 1,
                name: "a".into(),
                cap: owner,
                col_rights: vec![Rights::ALL],
            },
            DirOp::CreateKeyed {
                columns: names(&["o"]),
                check: 0xC2,
                key: 0xFEED,
            },
            DirOp::InstallStub {
                object: 2,
                to_port: 77,
                to_object: 9,
                expected_seqno: 3,
            },
            DirOp::GrantRead {
                cap: owner,
                owner: 7,
                cb_port: 8,
                now_us: 0,
                deadline_us: 400_000,
            },
        ];
        for (seq, op) in (1..).zip(ops) {
            sm.apply(ctx, seq, &op.encode(), false);
        }
        let (cursor, snap) = sm.snapshot(ctx);
        assert!(fresh.install(ctx, cursor, &snap), "the snapshot installs");
        assert_eq!(fresh.snapshot(ctx), (cursor, snap.clone()));
        (cursor, hex(&snap))
    });
    sim.run_for(Duration::from_secs(60));
    let golden = "05000000000000000400000000000000\
         010000000100000000000000c100000000000000360000000200000000000000\
         01050000006f776e657201000000010000006116178d83bd2600000100000000\
         000000ffc10000000000000001ff01000000edfe000000000000020000000000\
         0000010000000200000000000000c20000000000000004000000000000004d00\
         0000000000000900000000000000010000000100000000000000070000000000\
         00000800000000000000801a060000000000801a060000000000020000000000\
         0000";
    assert_eq!(out.take(), Some((5, golden.to_string())));
}

#[test]
fn mutated_messages_are_refused_or_decode_exactly() {
    for (_, golden) in requests() {
        mutants_refused_or_exact(&unhex(golden), |b| {
            DirRequest::decode(b).ok().map(|v| v.encode().to_vec())
        });
    }
    for (_, golden) in replies() {
        mutants_refused_or_exact(&unhex(golden), |b| {
            DirReply::decode(b).ok().map(|v| v.encode().to_vec())
        });
    }
    for (_, golden) in ops() {
        mutants_refused_or_exact(&unhex(golden), |b| {
            DirOp::decode(b).ok().map(|v| v.encode().to_vec())
        });
    }
    mutants_refused_or_exact(&unhex(two_row_directory().1), |b| {
        Directory::decode(b).ok().map(|v| v.encode().to_vec())
    });
}

/// What the fuzz found first: a capability's port is 48 bits wide, and a
/// port field with higher bits set decoded — to a different capability.
#[test]
fn a_capability_port_wider_than_48_bits_is_refused() {
    let mut delete = unhex("02d1000000000001000100000000000000ffc100000000000000");
    assert!(DirRequest::decode(&delete).is_err());
    delete[7] = 0; // bit 48 of the port
    assert_eq!(
        DirRequest::decode(&delete).ok(),
        Some(DirRequest::DeleteDir { cap: cap(1) })
    );
}
