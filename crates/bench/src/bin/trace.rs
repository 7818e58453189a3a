//! One traced 4-shard cached deployment, exported for Perfetto.
//!
//! Drives a lease-held write (so the revocation fan-out shows up), then
//! creates a directory on one shard and links it into the root on
//! another with a plain append. Asserts both client ops' span trees are
//! connected and the link's spans ≥3 machines; has the cached reader
//! pause past its lease and asserts its next lookup was revalidated (the
//! lease renewed without re-sending the rows) with a connected span
//! tree; and writes the whole run as Chrome-trace-event JSON that
//! `chrome://tracing` / Perfetto can open to the given path (default
//! `BENCH_trace.json`). The export is re-parsed and validated before
//! writing. Also prints the ten busiest rows of the simulator's
//! activation table.
//!
//! Run with: `cargo run -p amoeba-bench --release --bin trace -- [out.json]`

use std::path::PathBuf;
use std::time::Duration;

use amoeba_bench::testbed_traced;
use amoeba_dir_core::cluster::Variant;
use amoeba_dir_core::{CacheParams, Rights};

fn main() {
    let out = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_trace.json"));
    println!("trace export — 4-shard traced deployment");
    let ttl = Duration::from_secs(3);
    let (mut tb, tele) = testbed_traced(Variant::Group, 0x7AACE, |p| {
        p.shards = 4;
        p.dir.max_lease = ttl;
        p.dir_cache = Some(CacheParams {
            ttl,
            ..CacheParams::default()
        });
    });
    // A fresh post-formation directory, seeded with the row the reader
    // resolves (a formation-time directory can sit behind a replica that
    // missed its create and refuses lease grants).
    let client = tb.client.clone();
    let made = tb.sim.spawn("trace-setup", move |ctx| {
        let dir = client.create_dir(ctx, &["owner", "other"]).expect("dir");
        client
            .append_row(ctx, dir, "payload", dir, vec![Rights::ALL, Rights::NONE])
            .expect("seed row");
        dir
    });
    tb.sim.run_for(Duration::from_secs(5));
    let dir = made.take().expect("trace directory created");

    // A cached reader holds a read lease on the directory, so the
    // traced write below pays a revocation fan-out the trace can show.
    // Its lookups run past its lease's renewal, which is fetched after
    // every write; then it pauses past the renewed lease, and its next
    // lookup revalidates the snapshot it kept.
    let (reader, _) = tb.cluster.client(&tb.sim);
    let rd = reader.clone();
    let revalidated = tb.sim.spawn("trace-reader", move |ctx| {
        for _ in 0..80 {
            let _ = rd.lookup(ctx, dir, "payload");
            ctx.sleep(Duration::from_millis(50));
        }
        ctx.sleep(ttl + Duration::from_millis(500));
        let before = rd.cache_stats().expect("reader has a cache").revalidated;
        let at = ctx.now();
        assert!(rd.lookup(ctx, dir, "payload").expect("lookup").is_some());
        let after = rd.cache_stats().expect("reader has a cache").revalidated;
        (after - before, at)
    });
    let client = tb.client.clone();
    let root = tb.root;
    let done = tb.sim.spawn("trace-writer", move |ctx| {
        // Let the reader take its lease first.
        ctx.sleep(Duration::from_millis(500));
        client
            .append_row(ctx, dir, "traced", dir, vec![Rights::ALL, Rights::NONE])
            .expect("traced append");
        let created_at = ctx.now();
        let sub = client
            .create_dir(ctx, &["owner", "other"])
            .expect("traced create");
        let linked_at = ctx.now();
        client
            .append_row(ctx, root, "subdir", sub, vec![Rights::ALL, Rights::ALL])
            .expect("traced link");
        let _ = client.lookup(ctx, sub, "nothing");
        (sub, created_at, linked_at)
    });
    tb.sim.run_for(Duration::from_secs(10));
    let (sub, created_at, linked_at) = done.take().expect("traced workload completed");
    assert_ne!(sub.port, root.port, "the link crosses shards");
    let (revalidations, paused_lookup_at) = revalidated.take().expect("reader finished");
    assert_eq!(
        revalidations, 1,
        "the lookup past the lease must revalidate the kept snapshot, not re-fetch it"
    );
    let reader_stats = reader.cache_stats().expect("reader has a cache");
    assert!(reader_stats.hits > 0, "the traced reader must serve hits");
    assert!(
        reader_stats.invalidations > 0,
        "the traced write must revoke the reader's lease"
    );

    let spans = tele.spans();
    let root_at = |name: &str, at| {
        spans
            .iter()
            .find(|s| s.name == name && s.parent == 0 && s.start == at)
            .unwrap_or_else(|| panic!("{name} root span"))
    };
    let create_root = root_at("cli.create_dir", created_at);
    let (roots, orphans, _) = amoeba_telemetry::span_tree_stats(&spans, create_root.trace);
    assert_eq!((roots, orphans), (1, 0), "create span tree connected");
    let link_root = root_at("cli.append_row", linked_at);
    let (roots, orphans, machines) = amoeba_telemetry::span_tree_stats(&spans, link_root.trace);
    assert_eq!((roots, orphans), (1, 0), "link span tree connected");
    assert!(machines >= 3, "the link touched only {machines} machines");
    assert!(
        spans.iter().any(|s| s.name == "cache.inval"),
        "the revocation fan-out must appear as cache.inval spans"
    );
    let lookup_root = root_at("cli.lookup", paused_lookup_at);
    let (roots, orphans, lookup_machines) =
        amoeba_telemetry::span_tree_stats(&spans, lookup_root.trace);
    assert_eq!(
        (roots, orphans),
        (1, 0),
        "revalidated lookup tree connected"
    );
    assert!(
        lookup_machines >= 2,
        "the revalidated lookup reached no server ({lookup_machines} machine)"
    );

    let json = tele.export_chrome_json();
    let summary = amoeba_telemetry::validate_chrome_trace(&json).expect("exported trace validates");
    std::fs::write(&out, &json).expect("write trace file");

    println!(
        "  {} events ({} slices, {} flow pairs, {} tracks); link tree: \
         1 root, 0 orphans, {machines} machines; revalidated lookup tree: \
         1 root, 0 orphans, {lookup_machines} machines",
        summary.events, summary.slices, summary.flow_pairs, summary.tracks
    );
    print_busiest_roles(&tb.sim.activations());
    println!("wrote {}", out.display());
}

/// The ten busiest rows of the simulator's activation table, summed by
/// role (a name with its numbers blanked: `dir#-srv#`, `rpc@host:#`):
/// where the host's time goes, event by event. Each wake reason is
/// printed as "handed the baton by another thread + woke itself".
fn print_busiest_roles(table: &[amoeba_sim::Activations]) {
    let mut roles: std::collections::BTreeMap<String, amoeba_sim::Activations> = Default::default();
    for row in table {
        let mut role = String::new();
        for c in row.name.chars() {
            if !c.is_ascii_digit() {
                role.push(c);
            } else if !role.ends_with('#') {
                role.push('#');
            }
        }
        let sum = roles.entry(role).or_default();
        for reason in 0..4 {
            sum.resumes[reason] += row.resumes[reason];
            sum.handoffs_in[reason] += row.handoffs_in[reason];
        }
        sum.handler_calls += row.handler_calls;
    }
    let total = |r: &amoeba_sim::Activations| r.resumes.iter().sum::<u64>() + r.handler_calls;
    let mut busiest: Vec<_> = roles.iter().collect();
    busiest.sort_by_key(|(role, r)| (std::cmp::Reverse(total(r)), role.as_str()));
    println!(
        "  activations, 10 busiest of {} roles ({} names):",
        roles.len(),
        table.len()
    );
    println!(
        "    {:<24} {:>9} {:>9} {:>6} {:>15} {:>15} {:>15}",
        "role", "total", "handler", "first", "slept", "mailbox", "timed out"
    );
    for (role, r) in busiest.into_iter().take(10) {
        let by = |reason: usize| {
            let handed = r.handoffs_in[reason];
            format!("{handed}+{}", r.resumes[reason] - handed)
        };
        println!(
            "    {role:<24} {:>9} {:>9} {:>6} {:>15} {:>15} {:>15}",
            total(r),
            r.handler_calls,
            r.resumes[0],
            by(1),
            by(2),
            by(3)
        );
    }
}
