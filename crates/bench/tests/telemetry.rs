//! End-to-end guarantees of the causal-tracing layer, checked against a
//! real group-replicated deployment:
//!
//! - one client write yields **one connected span tree** spanning client,
//!   sequencer, and replicas (no orphaned server-side work), and the
//!   Chrome-trace export of it validates;
//! - installing telemetry is **zero-perturbation**: the simulated run is
//!   bit-identical with tracing on or off.

use std::time::Duration;

use amoeba_bench::{testbed_traced, testbed_with, traced_update_burst};
use amoeba_dir_core::cluster::Variant;
use amoeba_dir_core::Rights;
use amoeba_sim::SimTime;

#[test]
fn client_write_yields_one_connected_span_tree() {
    let (mut tb, tele) = testbed_traced(Variant::Group, 0x5BA9, |p| p.shards = 2);
    let client = tb.client.clone();
    let root = tb.root;
    let done = tb.sim.spawn("tree-writer", move |ctx| {
        client
            .create_in(
                ctx,
                root,
                "sub",
                &["owner", "other"],
                vec![Rights::ALL, Rights::ALL],
            )
            .is_ok()
    });
    tb.sim.run_for(Duration::from_secs(10));
    assert_eq!(done.take(), Some(true), "traced create_in must succeed");

    let spans = tele.spans();
    let root_span = spans
        .iter()
        .find(|s| s.name == "cli.create_in" && s.parent == 0)
        .expect("client root span");
    let (roots, orphans, machines) = amoeba_telemetry::span_tree_stats(&spans, root_span.trace);
    assert_eq!(roots, 1, "exactly one root in the write's trace");
    assert_eq!(orphans, 0, "every server-side span parents into the tree");
    assert!(
        machines >= 3,
        "write must cross client, sequencer, and replicas; saw {machines}"
    );
    // The commit wait is in the tree: every replica that applied one of
    // the write's ops also shows the durable flush the op then waited
    // for — on the stock disk path, at least one disk access long.
    let one_access = tb.cluster.params.disk.access_time(1);
    let named = |name: &str| -> Vec<&amoeba_telemetry::SpanRec> {
        let in_trace =
            |s: &&amoeba_telemetry::SpanRec| s.trace == root_span.trace && s.name == name;
        spans.iter().filter(in_trace).collect()
    };
    let (applies, flushes) = (named("rsm.apply"), named("rsm.flush"));
    assert!(applies.len() >= 3, "a replica group applied the write");
    for a in &applies {
        assert!(
            flushes.iter().any(|f| f.machine == a.machine),
            "machine {} applied the write but shows no rsm.flush span",
            a.machine
        );
    }
    for f in &flushes {
        let took = f.end.expect("flush span closed") - f.start;
        assert!(took >= one_access, "an rsm.flush took only {took:?}");
    }
    // The same tree must survive the export round trip.
    let summary =
        amoeba_telemetry::validate_chrome_trace(&tele.export_chrome_json()).expect("valid export");
    assert!(summary.slices > 0 && summary.flow_pairs > 0);
    // And the op's latency landed in its family's histogram.
    let in_family = tele.metrics().hists.get("cli.create_in").map(|h| h.count);
    assert_eq!(in_family, Some(1));
}

/// The auxiliary-ops scenario, traced or not: a lease grant plus a
/// directory migration. Returns the simulated instant the last op
/// completed, and the spans recorded.
fn aux_ops(traced: bool) -> (SimTime, Vec<amoeba_telemetry::SpanRec>) {
    use amoeba_dir_core::ShardMap;

    let tweak = |p: &mut amoeba_dir_core::cluster::ClusterParams| {
        p.shards = 2;
        p.lease_service = true;
    };
    let (mut tb, tele) = if traced {
        let (tb, tele) = testbed_traced(Variant::Group, 0x10CC, tweak);
        (tb, Some(tele))
    } else {
        (testbed_with(Variant::Group, 0x10CC, tweak), None)
    };
    let (ls, _) = tb.cluster.lease_client(&tb.sim);
    let client = tb.client.clone();
    let done = tb.sim.spawn("aux-ops", move |ctx| {
        let g = matches!(ls.grant(ctx, "fence", 7, 8), Ok(Some(_)));
        let map = ShardMap::new(2);
        let m = client
            .create_dir(ctx, &["owner", "other"])
            .ok()
            .and_then(|cap| {
                let here = map.shard_of_cap(&cap)?;
                client.migrate(ctx, cap, 1 - here).ok()
            })
            .is_some();
        ((g, m), ctx.now())
    });
    tb.sim.run_for(Duration::from_secs(30));
    let (ok, finished) = done.take().expect("aux ops ran to completion");
    assert_eq!(ok, (true, true), "lease and migration ops must succeed");
    (finished, tele.map(|t| t.spans()).unwrap_or_default())
}

/// Every auxiliary subsystem — the lease service and directory
/// migration — must parent its
/// server-side work into the client op's trace: one root, no orphans,
/// spans on more than one machine, and the subsystem's own server span
/// present in the tree. And tracing them must leave the simulated clock
/// untouched: the last op completes at the same instant traced or not.
#[test]
fn aux_service_and_migration_ops_yield_connected_span_trees() {
    let (untraced_end, none) = aux_ops(false);
    let (traced_end, spans) = aux_ops(true);
    assert!(none.is_empty(), "untraced arm records nothing");
    assert_eq!(
        untraced_end, traced_end,
        "tracing the auxiliary services must not move the simulated clock"
    );
    for (root_name, srv_name) in [("cli.ls.grant", Some("lease.srv")), ("cli.migrate", None)] {
        let root_span = spans
            .iter()
            .find(|s| s.name == root_name && s.parent == 0)
            .unwrap_or_else(|| panic!("{root_name} root span recorded"));
        let (roots, orphans, machines) = amoeba_telemetry::span_tree_stats(&spans, root_span.trace);
        assert_eq!(roots, 1, "{root_name}: exactly one root in the trace");
        assert_eq!(orphans, 0, "{root_name}: every span parents into the tree");
        assert!(
            machines >= 2,
            "{root_name}: op must cross client and server; saw {machines}"
        );
        if let Some(srv) = srv_name {
            assert!(
                spans
                    .iter()
                    .any(|s| s.trace == root_span.trace && s.name == srv),
                "{root_name}: trace must contain a {srv} server span"
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_simulated_run() {
    let args = (
        3,
        Duration::from_millis(500),
        Duration::from_secs(2),
        0xF00D,
    );
    let off = traced_update_burst(false, args.0, args.1, args.2, args.3);
    let on = traced_update_burst(true, args.0, args.1, args.2, args.3);
    assert_eq!(
        (off.ops_per_sec.to_bits(), off.end),
        (on.ops_per_sec.to_bits(), on.end),
        "simulated clock and throughput must be bit-identical with tracing on"
    );
    assert_eq!(off.spans, 0, "untraced arm records nothing");
    assert!(on.spans > 0, "traced arm records the same run's spans");
    assert!(on.flows > 0, "traced arm records packet flow edges");
}
