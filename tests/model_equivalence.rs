//! One-copy serializability: random operation sequences executed against
//! the replicated service — and against one replica's planner alone —
//! must match the sequential in-memory model.

use std::collections::BTreeMap;
use std::time::Duration;

use amoeba_dirsvc::bullet::BulletClient;
use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::model::DirModel;
use amoeba_dirsvc::dir::{
    Capability, DirClientError, DirError, DirOp, DirParams, DirReply, Directory,
    DirectoryStateMachine, Rights, Row, ServiceConfig, Storage,
};
use amoeba_dirsvc::disk::{DiskParams, DiskServer, RawPartition, VDisk};
use amoeba_dirsvc::flip::wire::{Wire, WireWriter};
use amoeba_dirsvc::flip::{NetParams, Network, Port};
use amoeba_dirsvc::rpc::{RpcClient, RpcNode};
use amoeba_dirsvc::rsm::StateMachine;
use amoeba_dirsvc::sim::{Resource, Simulation};
use amoeba_testkit::Gen;

/// A client-visible operation in the generated workload.
#[derive(Debug, Clone)]
enum WorkloadOp {
    Create,
    /// Append `name` to the directory created by the `k`-th create.
    Append {
        dir: usize,
        name: String,
    },
    DeleteRow {
        dir: usize,
        name: String,
    },
    Chmod {
        dir: usize,
        name: String,
    },
    DeleteDir {
        dir: usize,
    },
    Lookup {
        dir: usize,
        name: String,
    },
}

/// Draws one weighted workload operation (weights as in the original
/// proptest strategy: 1 create, 4 append, 3 delete-row, 2 chmod,
/// 1 delete-dir, 4 lookup).
fn gen_op(g: &mut Gen) -> WorkloadOp {
    const NAMES: [&str; 4] = ["a", "b", "c", "d"];
    let dir = g.below(4);
    let name = NAMES[g.below(4)].to_owned();
    match g.below(15) {
        0 => WorkloadOp::Create,
        1..=4 => WorkloadOp::Append { dir, name },
        5..=7 => WorkloadOp::DeleteRow { dir, name },
        8..=9 => WorkloadOp::Chmod { dir, name },
        10 => WorkloadOp::DeleteDir { dir },
        _ => WorkloadOp::Lookup { dir, name },
    }
}

#[test]
fn replicated_service_matches_sequential_model() {
    // Only a few cases: each spins up a whole simulated cluster.
    amoeba_testkit::check("replicated service matches model", 8, |g: &mut Gen| {
        let n = 1 + g.below(24);
        let ops: Vec<WorkloadOp> = (0..n).map(|_| gen_op(g)).collect();
        let seed = g.u64() % 1000;
        run_case(ops, seed);
    });
}

fn run_case(ops: Vec<WorkloadOp>, seed: u64) {
    let mut sim = Simulation::new(seed);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("workload", move |ctx| {
        // Wait for formation.
        let mut created: Vec<Option<Capability>> = Vec::new();
        let mut model = DirModel::new();
        loop {
            match client.create_dir(ctx, &["owner"]) {
                Ok(c) => {
                    let expected = model.apply(&DirOp::Create {
                        columns: vec!["owner".into()],
                        check: 0,
                    });
                    assert_eq!(expected.unwrap().unwrap(), c.object);
                    created.push(Some(c));
                    break;
                }
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }
        let mut failures = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                WorkloadOp::Create => {
                    let got = client.create_dir(ctx, &["owner"]);
                    let expected = model.apply(&DirOp::Create {
                        columns: vec!["owner".into()],
                        check: 0,
                    });
                    match (expected, &got) {
                        (Ok(Some(obj)), Ok(cap)) if cap.object == obj => {
                            created.push(Some(*cap));
                        }
                        other => failures.push(format!("op {i} Create mismatch: {other:?}")),
                    }
                }
                WorkloadOp::Append { dir, name } => {
                    let target = created.get(*dir).copied().flatten();
                    let Some(cap) = target else { continue };
                    let got = client.append_row(ctx, cap, name, cap, vec![Rights::ALL]);
                    let expected = model.apply(&DirOp::Append {
                        object: cap.object,
                        name: name.clone(),
                        cap,
                        col_rights: vec![Rights::ALL],
                    });
                    check(&mut failures, i, "Append", expected, got);
                }
                WorkloadOp::DeleteRow { dir, name } => {
                    let Some(cap) = created.get(*dir).copied().flatten() else {
                        continue;
                    };
                    let got = client.delete_row(ctx, cap, name);
                    let expected = model.apply(&DirOp::DeleteRow {
                        object: cap.object,
                        name: name.clone(),
                    });
                    check(&mut failures, i, "DeleteRow", expected, got);
                }
                WorkloadOp::Chmod { dir, name } => {
                    let Some(cap) = created.get(*dir).copied().flatten() else {
                        continue;
                    };
                    let got = client.chmod_row(ctx, cap, name, vec![Rights::MODIFY]);
                    let expected = model.apply(&DirOp::Chmod {
                        object: cap.object,
                        name: name.clone(),
                        col_rights: vec![Rights::MODIFY],
                    });
                    check(&mut failures, i, "Chmod", expected, got);
                }
                WorkloadOp::DeleteDir { dir } => {
                    let Some(cap) = created.get(*dir).copied().flatten() else {
                        continue;
                    };
                    let got = client.delete_dir(ctx, cap);
                    let expected = model.apply(&DirOp::Delete { object: cap.object });
                    if got.is_ok() {
                        created[*dir] = None;
                    }
                    check(&mut failures, i, "DeleteDir", expected, got);
                }
                WorkloadOp::Lookup { dir, name } => {
                    let Some(cap) = created.get(*dir).copied().flatten() else {
                        continue;
                    };
                    let got = client.lookup(ctx, cap, name);
                    let expected_present = model
                        .dir(cap.object)
                        .map(|d| d.find(name).is_some())
                        .unwrap_or(false);
                    match got {
                        Ok(found) => {
                            if found.is_some() != expected_present {
                                failures.push(format!(
                                    "op {i} Lookup({name}): service {} model {}",
                                    found.is_some(),
                                    expected_present
                                ));
                            }
                        }
                        Err(e) => failures.push(format!("op {i} Lookup error: {e}")),
                    }
                }
            }
        }
        failures
    });
    sim.run_for(Duration::from_secs(120));
    let failures = out.take().expect("workload finished");
    assert!(failures.is_empty(), "divergences: {failures:?}");
}

fn check(
    failures: &mut Vec<String>,
    i: usize,
    what: &str,
    expected: Result<Option<u64>, DirError>,
    got: Result<(), DirClientError>,
) {
    let matches = match (&expected, &got) {
        (Ok(None), Ok(())) => true,
        (Err(e), Err(DirClientError::Service(s))) => e == s,
        _ => false,
    };
    if !matches {
        failures.push(format!(
            "op {i} {what}: model {expected:?} vs service {got:?}"
        ));
    }
}

/// The planner against the model, op by op and without a cluster: one
/// in-place [`DirectoryStateMachine`] (`standalone`, its table on an
/// instant disk) is driven through `apply(.., reply: true)` inside one
/// simulated process and never flushed, so every op is planned from the
/// RAM cache alone — a few hundred microseconds of host time per case.
/// After each op its reply must equal the model's outcome, and every
/// object number in play must read the same through the public
/// `lease_answer` under an owner capability: the columns and the rows
/// the owner sees for a live directory, `BadCapability` for any other.
///
/// Generated: creates (malformed column counts included), deletes,
/// appends and chmods (wrong mask counts included), delete-rows and
/// replace-sets, on live, deleted and never-allocated objects. Left
/// out: grants, because the model has no lease table; `tests/cache.rs`
/// covers them end to end.
///
/// The same ops check the bytes a version carries: the service's
/// versions, the model's, and a copy of each model directory decoded
/// from its file when it appeared and edited only by the four row edits
/// since must each hold the rows they encode ([`full_encoding`]).
#[test]
fn the_planner_matches_the_model_op_by_op() {
    amoeba_testkit::check("planner matches model", 20, |g: &mut Gen| {
        let ops: Vec<DirOp> = (0..500).map(|_| gen_planned_op(g)).collect();
        let failures = plan_case(ops);
        assert!(failures.is_empty(), "divergences: {failures:?}");
    });
}

/// Every create carries this check, so an object's owner capability
/// is known whether or not the model thinks it is live.
const CHECK: u64 = 0xC1;

/// Object numbers in play: a few past what the creates reach.
const OBJECTS: u64 = 6;

/// A capability of another service, stored as rows' contents: a lease
/// reply hands it back as stored.
fn foreign(k: u64) -> Capability {
    Capability::owner(Port::from_name("elsewhere"), k, k)
}

fn gen_planned_op(g: &mut Gen) -> DirOp {
    const NAMES: [&str; 3] = ["a", "b", "c"];
    const MASKS: [Rights; 4] = [Rights::ALL, Rights::NONE, Rights::MODIFY, Rights(0x02)];
    let object = 1 + g.below(OBJECTS as usize) as u64;
    let name = NAMES[g.below(NAMES.len())].to_owned();
    let cap = foreign(g.below(3) as u64);
    // One or two masks mostly (the columns' count), now and then none
    // or three.
    let masks = |g: &mut Gen| -> Vec<Rights> {
        let n = [1, 1, 2, 2, 0, 3][g.below(6)];
        (0..n).map(|_| MASKS[g.below(MASKS.len())]).collect()
    };
    match g.below(20) {
        0..=2 => DirOp::Create {
            columns: (0..[1, 1, 2, 0, 5][g.below(5)])
                .map(|c| format!("col{c}"))
                .collect(),
            check: CHECK,
        },
        3 => DirOp::Delete { object },
        4..=9 => DirOp::Append {
            object,
            name,
            cap,
            col_rights: masks(g),
        },
        10..=11 => DirOp::Chmod {
            object,
            name,
            col_rights: masks(g),
        },
        12..=15 => DirOp::DeleteRow { object, name },
        _ => DirOp::ReplaceSet {
            items: (0..1 + g.below(3))
                .map(|_| {
                    let object = 1 + g.below(OBJECTS as usize) as u64;
                    (object, NAMES[g.below(NAMES.len())].to_owned(), foreign(7))
                })
                .collect(),
        },
    }
}

/// Runs `ops` through a fresh machine and the model side by side and
/// returns every divergence.
fn plan_case(ops: Vec<DirOp>) -> Vec<String> {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("m");
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let rpc = RpcNode::start(node, net.attach());
    let disk = DiskServer::start(&sim, node, VDisk::new(64, 4096), DiskParams::instant());
    let cfg = ServiceConfig::new(3, 0);
    let port = cfg.public_port;
    let sm = DirectoryStateMachine::standalone(
        cfg.clone(),
        DirParams::default(),
        BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
        RawPartition::new(disk, 0, 16),
        Storage::InPlace,
        Resource::new(sim.handle(), "cpu"),
    );
    let owner = move |object| Capability::owner(port, object, CHECK);
    let out = sim.spawn_on(node, "planner", move |ctx| {
        let mut model = DirModel::new();
        let mut decoded = BTreeMap::new();
        let mut failures = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let got = DirReply::decode(&sm.apply(ctx, i as u64 + 1, &op.encode(), true));
            let expected = match model.apply(op) {
                Ok(None) => DirReply::Ok,
                Ok(Some(object)) => DirReply::Cap(owner(object)),
                Err(e) => DirReply::Err(e),
            };
            if got.as_ref() != Ok(&expected) {
                failures.push(format!(
                    "op {i} {op:?}: model {expected:?}, service {got:?}"
                ));
            }
            splice_into(&mut decoded, op);
            for object in 1..=OBJECTS {
                let Some(d) = model.dir(object) else {
                    decoded.remove(&object);
                    continue;
                };
                let copy = decoded
                    .entry(object)
                    .or_insert_with(|| Directory::decode_shared(&d.encode()).expect("decodes"));
                let service = sm.load_dir(ctx, object).expect("a live directory");
                let carried = [
                    ("model", d),
                    ("decoded copy", &*copy),
                    ("service", &*service),
                ];
                for (whose, version) in carried {
                    if version.encode() != full_encoding(version) || version.rows() != d.rows() {
                        failures.push(format!("op {i} {op:?}: object {object}'s {whose} version"));
                    }
                }
            }
            for object in 1..=OBJECTS {
                let leased = DirReply::decode(&sm.lease_answer(ctx, &owner(object), 0, 1));
                let seen = match leased {
                    Ok(DirReply::Snapshot { columns, rows, .. }) => Some((columns, rows)),
                    Ok(DirReply::Err(DirError::BadCapability)) => None,
                    other => {
                        failures.push(format!("op {i}: object {object} leased as {other:?}"));
                        continue;
                    }
                };
                // The owner sees every column and each row it holds a
                // right over.
                let kept = model.dir(object).map(|d| {
                    let rows = d
                        .rows()
                        .iter()
                        .filter(|r| r.col_rights.iter().any(|m| *m != Rights::NONE));
                    (d.columns().to_vec(), rows.cloned().collect::<Vec<Row>>())
                });
                if seen != kept {
                    failures.push(format!(
                        "op {i} {op:?}: object {object} model {kept:?}, service {seen:?}"
                    ));
                }
            }
            if failures.len() > 3 {
                break;
            }
        }
        failures
    });
    sim.run();
    out.take().expect("the case ran")
}

/// Applies the row edits of `op` to the decoded copies it names. An op
/// the model refuses changes nothing here either: a replace-set edits
/// only when every name exists, a row edit only when its own call
/// succeeds.
fn splice_into(decoded: &mut BTreeMap<u64, Directory>, op: &DirOp) {
    match op {
        DirOp::Append {
            object,
            name,
            cap,
            col_rights,
        } => {
            if let Some(d) = decoded.get_mut(object) {
                let _ = d.append_row(name.as_str(), *cap, col_rights);
            }
        }
        DirOp::Chmod {
            object,
            name,
            col_rights,
        } => {
            if let Some(d) = decoded.get_mut(object) {
                let _ = d.chmod_row(name, col_rights);
            }
        }
        DirOp::DeleteRow { object, name } => {
            if let Some(d) = decoded.get_mut(object) {
                let _ = d.delete_row(name);
            }
        }
        DirOp::ReplaceSet { items } => {
            let all_there = items.iter().all(|(object, name, _)| {
                decoded.get(object).is_some_and(|d| d.find(name).is_some())
            });
            for (object, name, cap) in items.iter().filter(|_| all_there) {
                let d = decoded.get_mut(object).expect("checked above");
                d.replace_cap(name, *cap).expect("checked above");
            }
        }
        _ => {}
    }
}

/// A directory file written field by field from its columns and rows,
/// as the encoder wrote every one before a version carried its bytes:
/// the reference the spliced bytes must equal.
fn full_encoding(d: &Directory) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(d.seqno).u8(d.columns().len() as u8);
    for column in d.columns() {
        w.string(column);
    }
    w.u32(d.rows().len() as u32);
    for row in d.rows() {
        row.put(&mut w);
    }
    w.finish()
}
