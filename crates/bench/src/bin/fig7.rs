//! Regenerates the paper's **Fig. 7**: single-client latency of three
//! operations across the four implementations.
//!
//! ```text
//! Operation         Group(3)  RPC(2)  NFS(1)  Group+NVRAM(3)
//! Append-delete        184      192      87        27
//! Tmp file             215      277     111        52
//! Directory lookup       5        5       6         5
//! ```
//!
//! Run with: `cargo run -p amoeba-bench --bin fig7 --release`

use std::time::Duration;

use amoeba_bench::{append_delete_pair, mean_latency_ms, testbed};
use amoeba_bullet::BulletClient;
use amoeba_dir_core::cluster::Variant;
use amoeba_dir_core::{Rights, ServiceConfig};
use amoeba_disk::{DiskParams, DiskServer, VDisk};
use amoeba_rpc::RpcNode;

fn main() {
    println!("Fig. 7 — latency of directory operations (ms), paper vs measured");
    println!(
        "{:<18} {:>12} {:>10} {:>10}",
        "operation", "variant", "paper", "measured"
    );
    let variants = [
        (Variant::Group, 184.0, 215.0, 5.0),
        (Variant::Rpc, 192.0, 277.0, 5.0),
        (Variant::Nfs, 87.0, 111.0, 6.0),
        (Variant::GroupNvram, 27.0, 52.0, 5.0),
    ];
    for (variant, paper_ad, paper_tmp, paper_lookup) in variants {
        let (ad, tmp, lookup) = run_variant(variant);
        println!(
            "{:<18} {:>12} {:>10} {:>10.1}",
            "append-delete",
            variant.label(),
            paper_ad,
            ad
        );
        println!(
            "{:<18} {:>12} {:>10} {:>10.1}",
            "tmp file",
            variant.label(),
            paper_tmp,
            tmp
        );
        println!(
            "{:<18} {:>12} {:>10} {:>10.1}",
            "lookup",
            variant.label(),
            paper_lookup,
            lookup
        );
    }
}

fn run_variant(variant: Variant) -> (f64, f64, f64) {
    let mut tb = testbed(variant, 0xF167 ^ variant.servers() as u64);

    // --- Append-delete pair ---------------------------------------
    let ad = mean_latency_ms(&mut tb, 10, move |ctx, client, root, i| {
        let _ = append_delete_pair(ctx, client, root, format!("ad{i}"));
    });

    // --- Directory lookup (cached) --------------------------------
    let seed_name = "lookup-target";
    {
        let client = tb.client.clone();
        let root = tb.root;
        let out = tb.sim.spawn("seed", move |ctx| {
            client
                .append_row(ctx, root, seed_name, root, vec![Rights::ALL, Rights::NONE])
                .is_ok()
        });
        tb.sim.run_for(Duration::from_secs(10));
        assert_eq!(out.take(), Some(true));
    }
    let lookup = mean_latency_ms(&mut tb, 20, move |ctx, client, root, _| {
        let _ = client.lookup(ctx, root, seed_name);
    });

    // --- Tmp file --------------------------------------------------
    // Create a 4-byte file, register its capability, look up the name,
    // read the file back, delete the name (the paper's compiler-phases
    // scenario). The file service: Bullet of column 0 for the Amoeba
    // variants; a buffered (instant-disk) file server for the NFS-like
    // variant (UNIX writes /usr/tmp data asynchronously).
    let cfg = ServiceConfig::new(variant.servers(), 0);
    let file_service = match variant {
        Variant::Nfs => {
            // Attach a buffered file server next to the NFS machine.
            let node = tb.sim.add_node("nfs-filesrv");
            let stack = tb.cluster.net.attach();
            let rpc = RpcNode::start(node, stack);
            let port = amoeba_flip::Port::from_name("nfs.files");
            let disk = VDisk::new(4096, 4096);
            let dsrv = DiskServer::start(&tb.sim, node, disk, DiskParams::instant());
            let store = amoeba_bullet::BulletStore::new(4096, 4096, 17);
            amoeba_bullet::start_bullet_server(&tb.sim, node, &rpc, port, dsrv, store, 0, 2);
            port
        }
        _ => cfg.bullet_port(0),
    };
    let (client, rpc_client, _node) = tb.cluster.client_machine(&tb.sim);
    let files = BulletClient::new(rpc_client, file_service);
    let root = tb.root;
    let out = tb.sim.spawn("tmpfile-probe", move |ctx| {
        let mut total = Duration::ZERO;
        let iters = 8;
        for i in 0..=iters {
            let t0 = ctx.now();
            let fcap = files.create(ctx, vec![0xAB; 4]).expect("file create");
            let name = format!("tmp{i}");
            // Register the file capability (stored as an opaque foreign
            // capability in the directory).
            let as_cap = amoeba_dir_core::Capability {
                port: amoeba_flip::Port::from_raw(file_service.as_raw()),
                object: fcap.object,
                rights: Rights::ALL,
                check: fcap.check,
            };
            client
                .append_row(ctx, root, &name, as_cap, vec![Rights::ALL, Rights::NONE])
                .expect("register");
            let got = client
                .lookup(ctx, root, &name)
                .expect("lookup")
                .expect("present");
            let back = amoeba_bullet::FileCap {
                object: got.object,
                check: got.check,
            };
            let data = files.read(ctx, back).expect("read");
            assert_eq!(data.len(), 4);
            client.delete_row(ctx, root, &name).expect("deregister");
            let _ = files.delete(ctx, back);
            if i > 0 {
                total += ctx.now() - t0;
            }
        }
        total.as_secs_f64() * 1e3 / iters as f64
    });
    amoeba_bench::run_until_ready(&mut tb, &out, Duration::from_secs(120));
    let tmp = out.take().expect("tmp-file probe finished");
    (ad, tmp, lookup)
}
