//! End-to-end guarantees of the causal-tracing layer, checked against a
//! real group-replicated deployment:
//!
//! - one client write yields **one connected span tree** spanning client,
//!   sequencer, and replicas (no orphaned server-side work), and the
//!   Chrome-trace export of it validates;
//! - installing telemetry is **zero-perturbation**: the simulated run is
//!   bit-identical with tracing on or off.

use std::time::Duration;

use amoeba_bench::{testbed_traced, traced_update_burst};
use amoeba_dir_core::cluster::Variant;
use amoeba_dir_core::Rights;

#[test]
fn client_write_yields_one_connected_span_tree() {
    let (mut tb, tele) = testbed_traced(Variant::Group, 0x5BA9, |p| p.shards = 2);
    let client = tb.client.clone();
    let root = tb.root;
    let done = tb.sim.spawn("tree-writer", move |ctx| {
        client
            .append_row(ctx, root, "sub", root, vec![Rights::ALL, Rights::ALL])
            .is_ok()
    });
    tb.sim.run_for(Duration::from_secs(10));
    assert_eq!(done.take(), Some(true), "traced append_row must succeed");

    let spans = tele.spans();
    let root_span = spans
        .iter()
        .find(|s| s.name == "cli.append_row" && s.parent == 0)
        .expect("client root span");
    let (roots, orphans, machines) = amoeba_telemetry::span_tree_stats(&spans, root_span.trace);
    assert_eq!(roots, 1, "exactly one root in the write's trace");
    assert_eq!(orphans, 0, "every server-side span parents into the tree");
    assert!(
        machines >= 3,
        "write must cross client, sequencer, and replicas; saw {machines}"
    );
    // The commit wait is in the tree: every replica that applied the
    // write also shows the durable flush the op then waited for — on
    // the stock disk path, at least one disk access long.
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
    let in_family = tele.metrics().hists.get("cli.append_row").map(|h| h.count);
    assert_eq!(in_family, Some(1));
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
