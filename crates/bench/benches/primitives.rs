//! Micro-benchmarks of the building blocks: wire codecs, capability
//! arithmetic, the deterministic PRNG, the simulation kernel's event
//! throughput, and the network model.
//!
//! These measure *real* (host) time — how fast the reproduction itself
//! runs — as opposed to the figure binaries, which report virtual time.
//!
//! Run with: `cargo bench -p amoeba-bench --bench primitives`

use std::hint::black_box;
use std::time::Duration;

use amoeba_bench::microbench::{bench, bench_with_setup};
use amoeba_dir_core::{Capability, DirOp, DirRequest, Rights};
use amoeba_flip::wire::Wire;
use amoeba_flip::{NetParams, Network, Port};
use amoeba_group::GroupMsg;
use amoeba_sim::{SimRng, Simulation};

fn bench_wire_codecs() {
    let req = DirRequest::AppendRow {
        dir: Capability::owner(Port::from_name("dir"), 5, 77),
        name: "some-file-name".into(),
        cap: Capability::owner(Port::from_name("bullet"), 9, 31),
        col_rights: vec![Rights::ALL, Rights::NONE, Rights::column(1)],
    };
    bench("wire/dir_request_encode", || {
        black_box(req.encode());
    });
    let bytes = req.encode();
    bench("wire/dir_request_decode", || {
        black_box(DirRequest::decode(&bytes).unwrap());
    });
    let op = DirOp::Append {
        object: 5,
        name: "some-file-name".into(),
        cap: Capability::owner(Port::from_name("bullet"), 9, 31),
        col_rights: vec![Rights::ALL, Rights::NONE],
    };
    let op_bytes = op.encode();
    bench("wire/dir_op_roundtrip", || {
        black_box(DirOp::decode(&op_bytes).unwrap());
    });
    let accept = GroupMsg::Accept {
        instance: 1,
        incarnation: 0,
        seq: 42,
        from: amoeba_group::MemberId(1),
        from_tag: 1,
        msgid: 7,
        body: amoeba_group::AcceptBody::Data(vec![0u8; 256].into()),
    };
    let accept_bytes = accept.encode();
    bench("wire/group_accept_decode", || {
        black_box(GroupMsg::decode(&accept_bytes).unwrap());
    });
}

fn bench_capabilities() {
    let check = 0xDEAD_BEEF_u64;
    let owner = Capability::owner(Port::from_name("dir"), 7, check);
    bench("capability/restrict", || {
        black_box(owner.restrict(Rights::column(1)).unwrap());
    });
    let restricted = owner.restrict(Rights::column(1)).unwrap();
    bench("capability/validate", || {
        black_box(restricted.validate(check));
    });
}

fn bench_rng() {
    let mut rng = SimRng::new(1);
    bench("rng/next_u64", || {
        black_box(rng.next_u64());
    });
    let mut rng = SimRng::new(1);
    bench("rng/exp_nanos", || {
        black_box(rng.exp_nanos(1e6));
    });
}

fn bench_sim_kernel() {
    // Event throughput: two processes ping-ponging 1000 messages.
    bench_with_setup(
        "sim_kernel/ping_pong_1000",
        10,
        || (),
        |_| {
            let mut sim = Simulation::new(1);
            let (tx_a, rx_a) = sim.channel::<u32>();
            let (tx_b, rx_b) = sim.channel::<u32>();
            sim.spawn("a", move |ctx| {
                for i in 0..1000 {
                    tx_b.send(i);
                    let _ = rx_a.recv(ctx);
                }
            });
            sim.spawn("b", move |ctx| {
                for _ in 0..1000 {
                    let v = rx_b.recv(ctx);
                    tx_a.send(v);
                }
            });
            black_box(sim.run());
        },
    );
    // Many timers interleaving.
    bench_with_setup(
        "sim_kernel/sleepers_200",
        10,
        || (),
        |_| {
            let mut sim = Simulation::new(1);
            for i in 0..200u64 {
                sim.spawn(&format!("s{i}"), move |ctx| {
                    for _ in 0..5 {
                        ctx.sleep(Duration::from_micros(10 + i));
                    }
                });
            }
            black_box(sim.run());
        },
    );
}

fn bench_network_model() {
    bench_with_setup(
        "network_model/multicast_3hosts_100pkts",
        10,
        || (),
        |_| {
            let mut sim = Simulation::new(1);
            let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
            let g_addr = amoeba_flip::GroupAddr(1);
            let port = Port::from_name("bench");
            let sender = net.attach();
            let mut rxs = Vec::new();
            for _ in 0..3 {
                let s = net.attach();
                s.join_group(g_addr);
                rxs.push(s.bind(port));
            }
            sim.spawn("send", move |_| {
                for _ in 0..100 {
                    sender.send(g_addr, port, vec![0u8; 128]);
                }
            });
            for (i, rx) in rxs.into_iter().enumerate() {
                sim.spawn(&format!("r{i}"), move |ctx| {
                    for _ in 0..100 {
                        let _ = rx.recv(ctx);
                    }
                });
            }
            black_box(sim.run());
        },
    );
}

fn main() {
    bench_wire_codecs();
    bench_capabilities();
    bench_rng();
    bench_sim_kernel();
    bench_network_model();
}
