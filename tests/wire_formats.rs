//! Golden bytes of everything the directory service sends or stores —
//! every `DirRequest`, `DirReply` and `DirOp` variant (all eight error
//! codes included), a directory file, a replica snapshot and the commit
//! block — and of every message below it: each `GroupMsg` variant
//! (each `AcceptBody` too), each Bullet request and reply, the
//! replicas' recovery messages (`InternalMsg`) and the RPC service's
//! peer messages (`PeerMsg`). All were captured from the hand-written
//! encoders, so no refactor of a codec can move a byte: simulated time
//! charges every payload by its length. The tags of retired variants
//! keep their last bytes here too, each refused.
//!
//! And a mutation fuzz over the message goldens: every truncation,
//! every single-byte substitution and one trailing byte must either be
//! refused or decode to a value that encodes back to exactly the input.

use std::time::Duration;

use amoeba_dirsvc::bullet::{BulletClient, BulletErrorKind, BulletReply, BulletRequest, FileCap};
use amoeba_dirsvc::dir::{
    Capability, CommitBlock, DirError, DirOp, DirParams, DirReply, DirRequest, Directory,
    DirectoryStateMachine, PeerMsg, Rights, Row, ServiceConfig, Storage,
};
use amoeba_dirsvc::disk::{DiskParams, DiskServer, RawPartition, VDisk};
use amoeba_dirsvc::flip::wire::{Wire, WireWriter};
use amoeba_dirsvc::flip::{HostAddr, NetParams, Network, Payload, Port};
use amoeba_dirsvc::group::{
    AcceptBody, AcceptItem, DoneItem, GroupMsg, MemberId, MemberInfo, View,
};
use amoeba_dirsvc::rpc::{RpcClient, RpcNode};
use amoeba_dirsvc::rsm::{InternalMsg, StateMachine};
use amoeba_dirsvc::sim::{NodeId, Resource, Simulation};
use amoeba_explore::schedule::{FaultKind, Injection};
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
            let bytes = Payload::from(unhex(golden));
            assert_eq!(<$t>::decode(&bytes).ok(), Some(value), "{golden}");
            let trailing = Payload::from([&unhex(golden)[..], &[0]].concat());
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
        col_rights: col_rights[..].into(),
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
            DirRequest::FetchDir {
                cap: cap(1),
                owner: 0xC11E,
                cb_port: Port::from_raw(0xCB),
                ttl_us: 250_000,
                have: 8,
            },
            "0fd1000000000000000100000000000000ffc1000000000000001ec1000000000000cb0000\
             000000000090d00300000000000800000000000000",
        ),
        (
            // The most columns a directory has.
            DirRequest::CreateDir {
                columns: names(&["a", "b", "c", "d"]),
            },
            "01040100000061010000006201000000630100000064",
        ),
        (DirRequest::LookupSet { items: vec![] }, "0700000000"),
        (DirRequest::ReplaceSet { items: vec![] }, "0800000000"),
        (
            // A name longer than 255 bytes: its length needs two bytes.
            DirRequest::AppendRow {
                dir: cap(1),
                name: "x".repeat(256),
                cap: cap(2),
                col_rights: vec![Rights::ALL],
            },
            "04d1000000000000000100000000000000ffc1000000000000000001000078787878787878\
             78787878787878787878787878787878787878787878787878787878787878787878787878\
             78787878787878787878787878787878787878787878787878787878787878787878787878\
             78787878787878787878787878787878787878787878787878787878787878787878787878\
             78787878787878787878787878787878787878787878787878787878787878787878787878\
             78787878787878787878787878787878787878787878787878787878787878787878787878\
             78787878787878787878787878787878787878787878787878787878787878787878787878\
             787878787878787878787878787878787878787878787878787878d1000000000000000200\
             000000000000ffc20000000000000001ff",
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
            DirReply::Snapshot {
                version: 8,
                deadline_us: 1_250_000,
                renewed: true,
                columns: names(&["owner"]),
                rows: vec![visible],
            },
            "080800000000000000d0121300000000000101050000006f776e65720100000001000000\
             72d100000000000000040000000000000001f9a99105df9e07c40101",
        ),
        (
            DirReply::Unchanged {
                deadline_us: 1_250_000,
                renewed: true,
            },
            "09d01213000000000001",
        ),
        (DirReply::Caps(vec![]), "0400000000"),
        (
            DirReply::Listing {
                columns: names(&["owner"]),
                rows: vec![],
            },
            "0301050000006f776e657200000000",
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
            DirOp::GrantRead {
                cap: cap(1),
                owner: 0xC11E,
                cb_port: Port::from_raw(0xCB),
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
    dir.append_row("hello", cap(1), vec![Rights::ALL, Rights::column(0)])
        .expect("fresh name");
    dir.append_row("world", cap(2), vec![Rights::MODIFY, Rights::NONE])
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

/// The last golden bytes of each retired variant: online migration's
/// requests (`DirRequest` 12–14), replies (`DirReply` 6–7), error
/// (`DirError` 9) and ops (`DirOp` 10–11), and the keyed cross-shard
/// create and delete's requests (`DirRequest` 9–11) and ops (`DirOp`
/// 7–9). Their tags are refused, not
/// reused: a peer or client speaking the old layout gets an error. (The
/// group log's retired act kind 2 is refused in its own module's
/// tests: the record type is private.)
#[test]
fn every_retired_tag_is_refused() {
    type Refuses = fn(&[u8]) -> bool;
    let request: Refuses = |b| DirRequest::decode(b).is_err();
    let reply: Refuses = |b| DirReply::decode(b).is_err();
    let error: Refuses = |b| DirError::decode(b).is_err();
    let op: Refuses = |b| DirOp::decode(b).is_err();
    let retired: [(&str, Refuses, &str); 15] = [
        (
            "ExportDir request",
            request,
            "0cd1000000000000000100000000000000ffc100000000000000",
        ),
        (
            "InstallDir request",
            request,
            "0d02050000006f776e6572050000006f74686572020000000100000061d10000000000000002\
             00000000000000ffc20000000000000002ff020100000062d100000000000000030000000000\
             0000ffc300000000000000024000ecc4000000000000e104000000000000",
        ),
        (
            "InstallStub request",
            request,
            "0ed1000000000000000100000000000000ffc1000000000000004d00000000000000090000\
             00000000000c00000000000000",
        ),
        (
            "Moved reply",
            reply,
            "06040000000000000063000000000000000700000000000000",
        ),
        (
            "Export reply",
            reply,
            "071f00000000000000080000000000000001050000006f776e6572010000000100000072\
             d1000000000000000300000000000000ffc30000000000000001ff",
        ),
        ("Stale error reply", reply, "0509"),
        ("Stale error", error, "09"),
        (
            "InstallDir op",
            op,
            "0a02050000006f776e6572050000006f74686572020000000100000061d1000000000000\
             000200000000000000ffc20000000000000002ff000100000062d1000000000000000300\
             000000000000ffc300000000000000024000ecc4000000000000e104000000000000",
        ),
        (
            "InstallStub op",
            op,
            "0b04000000000000004d0000000000000009000000000000000c00000000000000",
        ),
        (
            "CreateKeyed request",
            request,
            "0901010000006fedfe000000000000",
        ),
        (
            "AppendLink request",
            request,
            "0ad1000000000000000100000000000000ffc1000000000000000100000078d10000000000\
             00000200000000000000ffc20000000000000001ff",
        ),
        (
            "Unlink request",
            request,
            "0bd1000000000000000100000000000000ffc1000000000000000100000078",
        ),
        (
            "CreateKeyed op",
            op,
            "0702010000006f01000000671f00000000000000edfe000000000000",
        ),
        (
            "AppendLink op",
            op,
            "0804000000000000000100000078d1000000000000000200000000000000ffc200000000\
             00000001ff",
        ),
        ("Unlink op", op, "0904000000000000000100000078"),
    ];
    for (what, refuses, golden) in retired {
        assert!(refuses(&unhex(golden)), "{what} decoded");
    }
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

/// Two directory machines on one node over an instant disk, each with
/// its own object table, and the node.
fn two_machines(sim: &mut Simulation) -> (NodeId, [DirectoryStateMachine; 2]) {
    let node = sim.add_node("m");
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let rpc = RpcNode::start(node, net.attach());
    let disk = DiskServer::start(sim, node, VDisk::new(64, 4096), DiskParams::instant());
    let cfg = ServiceConfig::new(3, 0);
    let machine = |first_block| {
        DirectoryStateMachine::standalone(
            cfg.clone(),
            DirParams::default(),
            BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
            RawPartition::new(disk.clone(), first_block, 16),
            Storage::InPlace,
            Resource::new(sim.handle(), "cpu"),
        )
    };
    (node, [machine(0), machine(16)])
}

/// The ops behind the golden replica snapshot: a directory with a row,
/// a second directory and a read lease.
fn snapshot_ops() -> [DirOp; 4] {
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    [
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
        DirOp::Create {
            columns: names(&["o"]),
            check: 0xC2,
        },
        DirOp::GrantRead {
            cap: owner,
            owner: 7,
            cb_port: Port::from_raw(8),
            now_us: 0,
            deadline_us: 400_000,
        },
    ]
}

/// The snapshot of [`snapshot_ops`]: update seq, commit seq, the two
/// directories, the empty sections where keyed creates' completion
/// records and migrated directories' stubs were, and the lease.
const SNAPSHOT: &str = "04000000000000000000000000000000\
     020000000100000000000000c100000000000000360000000200000000000000\
     01050000006f776e657201000000010000006116178d83bd2600000100000000\
     000000ffc10000000000000001ff0200000000000000c2000000000000001200\
     0000030000000000000001010000006f00000000000000000000000001000000\
     010000000000000007000000000000000800000000000000801a060000000000\
     801a0600000000000200000000000000";

/// A replica snapshot holding two directories and a read lease, and its
/// install on a fresh machine.
#[test]
fn a_replica_snapshot_keeps_its_bytes() {
    let mut sim = Simulation::new(1);
    let (node, [sm, fresh]) = two_machines(&mut sim);
    let out = sim.spawn_on(node, "replica", move |ctx| {
        for (seq, op) in (1..).zip(snapshot_ops()) {
            sm.apply(ctx, seq, &op.encode(), false);
        }
        let (cursor, snap) = sm.snapshot(ctx);
        assert!(fresh.install(ctx, cursor, &snap), "the snapshot installs");
        assert_eq!(fresh.snapshot(ctx), (cursor, snap.clone()));
        (cursor, hex(&snap))
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(out.take(), Some((4, SNAPSHOT.to_string())));
}

/// A snapshot as the layout before online migration was retired wrote
/// it, holding a forwarding stub: the section that held it must be
/// empty now.
const SNAPSHOT_WITH_A_STUB: &str = "05000000000000000400000000000000\
     010000000100000000000000c100000000000000360000000200000000000000\
     01050000006f776e657201000000010000006116178d83bd2600000100000000\
     000000ffc10000000000000001ff01000000edfe000000000000020000000000\
     0000010000000200000000000000c20000000000000004000000000000004d00\
     0000000000000900000000000000010000000100000000000000070000000000\
     00000800000000000000801a060000000000801a060000000000020000000000\
     0000";

/// A snapshot as the layout before the keyed cross-shard create was
/// retired wrote it, holding a completion record: the section that held
/// it must be empty now.
const SNAPSHOT_WITH_A_COMPLETION: &str = "04000000000000000000000000000000\
     020000000100000000000000c100000000000000360000000200000000000000\
     01050000006f776e657201000000010000006116178d83bd2600000100000000\
     000000ffc10000000000000001ff0200000000000000c2000000000000001200\
     0000030000000000000001010000006f0000000001000000edfe000000000000\
     0200000000000000000000000100000001000000000000000700000000000000\
     0800000000000000801a060000000000801a0600000000000200000000000000";

/// A peer's snapshot is refused whole, and the refusal leaves the
/// installing machine's state as it was: every truncation of the golden
/// snapshot, the golden with a byte appended, a directory count of
/// `u32::MAX` with nothing behind it (refused without reserving for the
/// claim), and a snapshot whose completion or stub section is not
/// empty.
#[test]
fn a_malformed_replica_snapshot_is_refused_and_changes_nothing() {
    let mut sim = Simulation::new(1);
    let (node, [sm, fresh]) = two_machines(&mut sim);
    let out = sim.spawn_on(node, "replica", move |ctx| {
        for (seq, op) in (1..).zip(snapshot_ops()) {
            sm.apply(ctx, seq, &op.encode(), false);
        }
        let (_, snap) = sm.snapshot(ctx);
        assert!(fresh.install(ctx, 77, &snap), "the snapshot installs");
        let installed = fresh.snapshot(ctx);
        assert_eq!(installed, (77, snap.clone()));
        let mut bad: Vec<Vec<u8>> = (0..snap.len()).map(|cut| snap[..cut].to_vec()).collect();
        bad.push([&snap[..], &[0]].concat());
        // Update seq and commit seq, then the directory count.
        let mut overclaim = snap[..16].to_vec();
        overclaim.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.push(overclaim);
        bad.push(unhex(SNAPSHOT_WITH_A_COMPLETION));
        bad.push(unhex(SNAPSHOT_WITH_A_STUB));
        // Installed, or refused after changing something.
        let taken = bad
            .iter()
            .filter(|bytes| {
                fresh.install(ctx, 5, &Payload::from(bytes.to_vec()))
                    || fresh.snapshot(ctx) != installed
            })
            .count();
        (bad.len(), taken)
    });
    sim.run_for(Duration::from_secs(60));
    let len = unhex(SNAPSHOT).len();
    assert_eq!(out.take(), Some((len + 4, 0)), "every snapshot refused");
}

/// The version a snapshot's bytes carry: the FNV-1a digest of what
/// follows its head (tag, version, deadline, renewed flag) — the
/// columns and the rows.
fn digest_after_head(snapshot: &[u8]) -> u64 {
    let mut w = WireWriter::digesting();
    w.raw(&snapshot[18..]);
    w.digest().expect("a digesting writer")
}

/// The version of a `Snapshot` answer's bytes, as the holder keeps it.
fn version_in(answer: &[u8]) -> u64 {
    match DirReply::decode(answer) {
        Ok(DirReply::Snapshot { version, .. }) => version,
        other => panic!("not a snapshot: {other:?}"),
    }
}

/// The `Snapshot` a holder of column 0 of a directory with columns
/// `owner` and `other` is sent, its rows the owner's `names`, under the
/// version its contents digest to; and the `Unchanged` that renews it.
fn leased(names_seen: &[&str]) -> (DirReply, DirReply) {
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    let snapshot = |version| DirReply::Snapshot {
        version,
        deadline_us: 400_000,
        renewed: false,
        columns: names(&["owner", "other"]),
        rows: names_seen
            .iter()
            .map(|name| row(name, owner, vec![Rights::ALL]))
            .collect(),
    };
    let version = digest_after_head(&snapshot(0).encode());
    let unchanged = DirReply::Unchanged {
        deadline_us: 400_000,
        renewed: false,
    };
    (snapshot(version), unchanged)
}

/// A holder of column 0 of directory 1 (columns `owner`, `other`), and
/// the append of a row pointing at the directory itself.
fn holder_and_append() -> (Capability, impl Fn(&str, Vec<Rights>) -> DirOp) {
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    let holder = owner
        .restrict(Rights::column(0))
        .expect("a weaker capability");
    let append = move |name: &str, col_rights| DirOp::Append {
        object: 1,
        name: name.into(),
        cap: owner,
        col_rights,
    };
    (holder, append)
}

fn create(check: u64) -> DirOp {
    DirOp::Create {
        columns: names(&["owner", "other"]),
        check,
    }
}

/// What a grant's initiator sends the holder, from the machine's state:
/// the rows a holder of column 0 sees — row `b` grants that column
/// nothing, so it is left out — under the digest of what it is sent;
/// asked again with that version, the renewed lease alone, also after
/// a create of another directory (no row the holder sees changed); and
/// the rows again once an append has changed them.
#[test]
fn a_grants_answer_keeps_its_bytes_and_is_unchanged_while_current() {
    let mut sim = Simulation::new(1);
    let (node, [sm, _]) = two_machines(&mut sim);
    let (holder, append) = holder_and_append();
    let out = sim.spawn_on(node, "replica", move |ctx| {
        let grant = DirOp::GrantRead {
            cap: holder,
            owner: 7,
            cb_port: Port::from_raw(8),
            now_us: 0,
            deadline_us: 400_000,
        };
        let mut seq = 0;
        let mut apply = |op: DirOp| {
            seq += 1;
            hex(&sm.apply(ctx, seq, &op.encode(), true))
        };
        apply(create(0xC1));
        apply(append("a", vec![Rights::ALL, Rights::column(0)]));
        apply(append("b", vec![Rights::NONE, Rights::ALL]));
        assert_eq!(apply(grant), "02", "the grant's apply answers Ok");
        let answer = |have| sm.lease_answer(ctx, &holder, have, 400_000);
        let first = answer(0);
        let have = version_in(&first);
        let mut answers = vec![hex(&first), hex(&answer(have))];
        apply(create(0xC2));
        answers.push(hex(&answer(have)));
        apply(append("c", vec![Rights::ALL, Rights::NONE]));
        answers.push(hex(&answer(have)));
        answers
    });
    sim.run_for(Duration::from_secs(60));
    let answers = out.take().expect("the machine answered");
    let (a, unchanged) = leased(&["a"]);
    let (a_c, _) = leased(&["a", "c"]);
    let expected: Vec<String> = [a, unchanged.clone(), unchanged, a_c]
        .iter()
        .map(|r| hex(&r.encode()))
        .collect();
    assert_eq!(answers, expected);
    assert_eq!(
        answers[..2],
        [
            "08d28905b975d6a633801a0600000000000002050000006f776e6572050000006f74686572\
             01000000010000006116178d83bd2600000100000000000000ffc10000000000000001ff",
            "09801a06000000000000",
        ]
    );
}

/// A version names contents, not a replica's update counter, so it
/// means the same at every replica of the shard. Replica B applied one
/// op fewer than A (A's extra op failed, so their contents agree), so
/// B's counter is one behind: A's version of the rows is current at B,
/// and once an append makes B's counter reach the seq A's version was
/// issued at, B still answers with the new rows, under the version A
/// gives them too.
#[test]
fn a_replica_a_counter_behind_never_takes_a_peers_version_for_its_own() {
    let mut sim = Simulation::new(1);
    let (node, [a, b]) = two_machines(&mut sim);
    let (holder, append) = holder_and_append();
    let out = sim.spawn_on(node, "replica", move |ctx| {
        let apply = |sm: &DirectoryStateMachine, seq, op: DirOp| {
            let _ = sm.apply(ctx, seq, &op.encode(), false);
        };
        for sm in [&a, &b] {
            apply(sm, 1, create(0xC1));
        }
        apply(&a, 2, DirOp::Delete { object: 9 });
        for (sm, seq) in [(&a, 3), (&b, 2)] {
            apply(sm, seq, append("a", vec![Rights::ALL, Rights::NONE]));
        }
        assert_eq!((a.update_seq(), b.update_seq()), (3, 2));
        let from_a = a.lease_answer(ctx, &holder, 0, 400_000);
        let have = version_in(&from_a);
        let mut answers = vec![
            hex(&from_a),
            hex(&b.lease_answer(ctx, &holder, have, 400_000)),
        ];
        for (sm, seq) in [(&a, 4), (&b, 3)] {
            apply(sm, seq, append("b", vec![Rights::ALL, Rights::NONE]));
        }
        assert_eq!((a.update_seq(), b.update_seq()), (4, 3));
        for sm in [&b, &a] {
            answers.push(hex(&sm.lease_answer(ctx, &holder, have, 400_000)));
        }
        answers
    });
    sim.run_for(Duration::from_secs(60));
    let answers = out.take().expect("both machines answered");
    let (row_a, unchanged) = leased(&["a"]);
    let (rows_ab, _) = leased(&["a", "b"]);
    let expected: Vec<String> = [row_a, unchanged, rows_ab.clone(), rows_ab]
        .iter()
        .map(|r| hex(&r.encode()))
        .collect();
    assert_eq!(answers, expected);
}

/// Every truncation, single-byte substitution and appended byte of each
/// golden is refused or decodes exactly.
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
    for (_, golden) in injections() {
        mutants_refused_or_exact(&unhex(golden), |b| {
            Injection::decode(b).ok().map(|v| v.encode().to_vec())
        });
    }
}

/// What the fuzz found first: a capability's port is 48 bits wide, and a
/// port field with higher bits set decoded — to a different capability.
/// So did a `FetchDir`'s callback port, which sent the lease's
/// invalidation elsewhere.
#[test]
fn a_capability_port_wider_than_48_bits_is_refused() {
    let mut delete = unhex("02d1000000000001000100000000000000ffc100000000000000");
    assert!(DirRequest::decode(&delete).is_err());
    delete[7] = 0; // bit 48 of the port
    assert_eq!(
        DirRequest::decode(&delete).ok(),
        Some(DirRequest::DeleteDir { cap: cap(1) })
    );
    let mut fetch = unhex(
        "0fd1000000000000000100000000000000ffc1000000000000001ec1000000000000cb0000\
         000000010090d00300000000000800000000000000",
    );
    assert!(DirRequest::decode(&fetch).is_err());
    fetch[40] = 0;
    let cb_port = Port::from_raw(0xCB);
    assert_eq!(
        DirRequest::decode(&fetch).ok(),
        Some(DirRequest::FetchDir {
            cap: cap(1),
            owner: 0xC11E,
            cb_port,
            ttl_us: 250_000,
            have: 8,
        })
    );
}

/// What decoding `value`'s bytes refuses it as.
fn refused_as<T: Wire + std::fmt::Debug>(value: T, what: &str) {
    let refused = T::decode(&value.encode()).err().map(|e| e.what);
    assert_eq!(refused, Some(what), "{value:?}");
}

/// A count one past its field's range is refused by the field's name,
/// and the largest count inside it decodes: a directory has 1–4
/// columns and at most 4 masks per row, a set at most 10,000 items.
#[test]
fn a_count_past_its_bound_is_refused() {
    refused_as(DirRequest::CreateDir { columns: vec![] }, "columns");
    let five = names(&["a", "b", "c", "d", "e"]);
    refused_as(DirRequest::CreateDir { columns: five }, "columns");
    let chmod = |masks| DirRequest::ChmodRow {
        dir: cap(1),
        name: "x".into(),
        col_rights: vec![Rights::ALL; masks],
    };
    refused_as(chmod(5), "rights masks");
    let lookup = |n| DirRequest::LookupSet {
        items: vec![(cap(1), "a".into()); n],
    };
    refused_as(lookup(10_001), "set items");
    assert_eq!(
        DirRequest::decode(&lookup(10_000).encode()),
        Ok(lookup(10_000))
    );
    refused_as(DirReply::Caps(vec![None; 10_001]), "set items");
    let replace = DirOp::ReplaceSet {
        items: vec![(4, "x".into(), cap(3)); 10_001],
    };
    refused_as(replace, "set items");
}

/// One injection of each kind, as a repro bundle's schedule holds them.
fn injections() -> Vec<(Injection, &'static str)> {
    vec![
        (
            Injection {
                at_ms: 4_500,
                dur_ms: 700,
                kind: FaultKind::Crash { column: 3 },
            },
            "9411000000000000bc02000000000000010300000000000000",
        ),
        (
            Injection {
                at_ms: 6_000,
                dur_ms: 800,
                kind: FaultKind::Isolate { column: 1 },
            },
            "70170000000000002003000000000000020100000000000000",
        ),
        (
            Injection {
                at_ms: 7_000,
                dur_ms: 900,
                kind: FaultKind::Degrade {
                    loss_pm: 250,
                    dup_pm: 40,
                    jitter_pm: 1_500,
                },
            },
            "581b000000000000840300000000000003fa000000000000002800000000000000dc0500\
             0000000000",
        ),
    ]
}

#[test]
fn a_fault_injection_keeps_its_bytes() {
    golden!(Injection, injections());
}

/// Member `id` of the group samples: host `10 * id`, tag `100 + id`.
fn member(id: u32) -> MemberInfo {
    MemberInfo {
        id: MemberId(id),
        host: HostAddr(id * 10),
        tag: u64::from(id) + 100,
    }
}

/// Members 0, 1 and 2.
fn three_members() -> View {
    let mut view = View::default();
    for id in 0..3 {
        view.insert(member(id));
    }
    view
}

fn accept_bodies() -> [AcceptBody; 4] {
    [
        AcceptBody::Data(vec![9, 9].into()),
        AcceptBody::BbRef,
        AcceptBody::Join(member(4)),
        AcceptBody::Leave(MemberId(2)),
    ]
}

fn done(from: u32, msgid: u64, seq: u64) -> DoneItem {
    DoneItem {
        from: MemberId(from),
        msgid,
        seq,
    }
}

fn group_msgs() -> Vec<(GroupMsg, &'static str)> {
    let port = Port::from_raw(0x0102_0304_0506);
    let mut msgs = vec![
        (
            GroupMsg::JoinLocate {
                port,
                joiner: HostAddr(1),
                join_id: 7,
            },
            "010605040302010000010000000700000000000000",
        ),
        (
            GroupMsg::JoinReply {
                port,
                instance: 9,
                members: 3,
                sequencer: HostAddr(0),
                incarnation: 2,
                join_id: 7,
            },
            "020605040302010000090000000000000003000000000000000200000000000000070000\
             0000000000",
        ),
        (
            GroupMsg::JoinRequest {
                instance: 9,
                joiner: HostAddr(1),
                tag: 5,
                join_id: 7,
            },
            "0309000000000000000100000005000000000000000700000000000000",
        ),
        (
            GroupMsg::JoinAck {
                instance: 9,
                join_id: 7,
                member_id: MemberId(3),
                incarnation: 2,
                view: three_members(),
                start_seq: 42,
            },
            "040900000000000000070000000000000003000000020000000000000003000000000000\
             00000000006400000000000000010000000a000000650000000000000002000000140000\
             0066000000000000002a00000000000000",
        ),
        (
            GroupMsg::SendReq {
                instance: 9,
                incarnation: 2,
                from: MemberId(1),
                msgid: 88,
                data: vec![1, 2, 3].into(),
            },
            "050900000000000000020000000000000001000000580000000000000003000000010203",
        ),
        (
            GroupMsg::BbData {
                instance: 9,
                incarnation: 2,
                from: MemberId(1),
                msgid: 88,
                data: vec![4, 5].into(),
            },
            "0609000000000000000200000000000000010000005800000000000000020000000405",
        ),
        (
            // A payload longer than 255 bytes: its length needs two bytes.
            GroupMsg::BbData {
                instance: 9,
                incarnation: 2,
                from: MemberId(1),
                msgid: 88,
                data: (0..=255).collect::<Vec<u8>>().into(),
            },
            "060900000000000000020000000000000001000000580000000000000000010000000102\
             030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526\
             2728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a\
             4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e\
             6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192\
             939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6\
             b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9da\
             dbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfe\
             ff",
        ),
    ];
    let accepts = [
        "07090000000000000002000000000000000a000000000000000100000065000000000000\
         00580000000000000000020000000909",
        "07090000000000000002000000000000000a000000000000000100000065000000000000\
         00580000000000000001",
        "07090000000000000002000000000000000a000000000000000100000065000000000000\
         0058000000000000000204000000280000006800000000000000",
        "07090000000000000002000000000000000a000000000000000100000065000000000000\
         0058000000000000000302000000",
    ];
    for (body, golden) in accept_bodies().into_iter().zip(accepts) {
        msgs.push((
            GroupMsg::Accept {
                instance: 9,
                incarnation: 2,
                seq: 10,
                from: MemberId(1),
                from_tag: 101,
                msgid: 88,
                body,
            },
            golden,
        ));
    }
    msgs.extend([
        (
            GroupMsg::AcceptBatch {
                instance: 9,
                incarnation: 2,
                first_seq: 10,
                items: accept_bodies()
                    .into_iter()
                    .enumerate()
                    .map(|(i, body)| AcceptItem {
                        from: MemberId(1),
                        from_tag: 101,
                        msgid: 88 + i as u64,
                        body,
                    })
                    .collect(),
                dones: vec![done(2, 44, 8), done(1, 87, 9)],
            },
            "13090000000000000002000000000000000a000000000000000400000001000000650000\
             000000000058000000000000000002000000090901000000650000000000000059000000\
             00000000010100000065000000000000005a000000000000000204000000280000006800\
             0000000000000100000065000000000000005b0000000000000003020000000200000002\
             0000002c0000000000000008000000000000000100000057000000000000000900000000\
             000000",
        ),
        (
            GroupMsg::AcceptBatch {
                instance: 9,
                incarnation: 2,
                first_seq: 14,
                items: vec![],
                dones: vec![],
            },
            "13090000000000000002000000000000000e000000000000000000000000000000",
        ),
        (
            GroupMsg::DoneBatch {
                instance: 9,
                items: vec![done(1, 88, 10), done(2, 91, 11)],
            },
            "140900000000000000020000000100000058000000000000000a00000000000000020000\
             005b000000000000000b00000000000000",
        ),
        (
            GroupMsg::DoneBatch {
                instance: 9,
                items: vec![],
            },
            "14090000000000000000000000",
        ),
        (
            GroupMsg::Ack {
                instance: 9,
                incarnation: 2,
                seq: 10,
                member: MemberId(2),
            },
            "08090000000000000002000000000000000a0000000000000002000000",
        ),
        (
            GroupMsg::Done {
                instance: 9,
                msgid: 88,
                seq: 10,
            },
            "09090000000000000058000000000000000a00000000000000",
        ),
        (
            GroupMsg::Retrans {
                instance: 9,
                from_seq: 5,
                to_seq: 9,
                requester: HostAddr(1),
            },
            "0a09000000000000000500000000000000090000000000000001000000",
        ),
        (
            GroupMsg::Heartbeat {
                instance: 9,
                incarnation: 2,
                next_seq: 11,
                sequencer: MemberId(0),
            },
            "0b090000000000000002000000000000000b0000000000000000000000",
        ),
        (
            GroupMsg::HeartbeatAck {
                instance: 9,
                incarnation: 2,
                member: MemberId(1),
            },
            "0c0900000000000000020000000000000001000000",
        ),
        (
            GroupMsg::LeaveRequest {
                instance: 9,
                incarnation: 2,
                member: MemberId(1),
            },
            "0d0900000000000000020000000000000001000000",
        ),
        (
            GroupMsg::FailNotice {
                instance: 9,
                incarnation: 2,
                suspect: MemberId(0),
            },
            "0e0900000000000000020000000000000000000000",
        ),
        (
            GroupMsg::ResetInvite {
                instance: 9,
                old_incarnation: 2,
                coord: MemberId(1),
                coord_host: HostAddr(10),
                round: 3,
            },
            "0f09000000000000000200000000000000010000000a0000000300000000000000",
        ),
        (
            GroupMsg::ResetVote {
                instance: 9,
                old_incarnation: 2,
                round: 3,
                coord: MemberId(1),
                voter: member(2),
                highest: 40,
            },
            "100900000000000000020000000000000003000000000000000100000002000000140000\
             0066000000000000002800000000000000",
        ),
        (
            GroupMsg::ResetResult {
                instance: 9,
                old_incarnation: 2,
                round: 3,
                coord: MemberId(1),
                new_incarnation: 3,
                view: three_members(),
                cutoff: 41,
                source: HostAddr(20),
            },
            "110900000000000000020000000000000003000000000000000100000003000000000000\
             000300000000000000000000006400000000000000010000000a00000065000000000000\
             0002000000140000006600000000000000290000000000000014000000",
        ),
        (
            GroupMsg::ExpelNotice {
                instance: 9,
                current_incarnation: 4,
            },
            "1209000000000000000400000000000000",
        ),
    ]);
    msgs
}

const FILE: FileCap = FileCap {
    object: 9,
    check: 0xAB,
};

fn bullet_requests() -> Vec<(BulletRequest, &'static str)> {
    vec![
        (
            BulletRequest::Create {
                data: vec![1, 2].into(),
            },
            "01020000000102",
        ),
        (
            BulletRequest::Read { cap: FILE },
            "020900000000000000ab00000000000000",
        ),
        (
            BulletRequest::Size { cap: FILE },
            "030900000000000000ab00000000000000",
        ),
        (
            BulletRequest::Delete { cap: FILE },
            "040900000000000000ab00000000000000",
        ),
    ]
}

fn bullet_replies() -> Vec<(BulletReply, &'static str)> {
    vec![
        (
            BulletReply::Created { cap: FILE },
            "010900000000000000ab00000000000000",
        ),
        (
            BulletReply::Data {
                data: vec![3].into(),
            },
            "020100000003",
        ),
        (BulletReply::Size { len: 77 }, "034d00000000000000"),
        (BulletReply::Done, "04"),
        (
            BulletReply::Error {
                kind: BulletErrorKind::BadCapability,
            },
            "0501",
        ),
        (
            BulletReply::Error {
                kind: BulletErrorKind::NoSpace,
            },
            "0502",
        ),
    ]
}

fn internal_msgs() -> Vec<(InternalMsg, &'static str)> {
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

fn peer_msgs() -> Vec<(PeerMsg, &'static str)> {
    let op = DirOp::Delete { object: 4 }.encode();
    vec![
        (
            PeerMsg::Intent {
                useq: 5,
                op: op.clone(),
            },
            "01050000000000000009000000020400000000000000",
        ),
        (PeerMsg::IntentOk, "02"),
        (PeerMsg::IntentBusy, "03"),
        (
            PeerMsg::ApplyLazy { useq: 6, op },
            "04060000000000000009000000020400000000000000",
        ),
        (PeerMsg::ApplyOk, "05"),
    ]
}

#[test]
fn every_group_bullet_and_replica_message_keeps_its_bytes() {
    golden!(GroupMsg, group_msgs());
    golden!(BulletRequest, bullet_requests());
    golden!(BulletReply, bullet_replies());
    golden!(InternalMsg, internal_msgs());
    golden!(PeerMsg, peer_msgs());
}

/// Every truncation, single-byte substitution and appended byte of each
/// golden is refused or decodes exactly. What it found first: a
/// `JoinAck` or `ResetResult` whose view repeated an id decoded to a
/// smaller view, and a port with bits above 48 to another port.
#[test]
fn mutated_group_bullet_and_replica_messages_are_refused_or_decode_exactly() {
    macro_rules! fuzz {
        ($t:ty, $table:expr) => {
            for (_, golden) in $table {
                mutants_refused_or_exact(&unhex(golden), |b| {
                    let msg = <$t>::decode(&Payload::from(b)).ok()?;
                    Some(msg.encode().to_vec())
                });
            }
        };
    }
    fuzz!(GroupMsg, group_msgs());
    fuzz!(BulletRequest, bullet_requests());
    fuzz!(BulletReply, bullet_replies());
    fuzz!(InternalMsg, internal_msgs());
    fuzz!(PeerMsg, peer_msgs());
}
