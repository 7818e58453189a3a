//! The message-pipeline benchmark behind `BENCH_pipeline.json`.
//!
//! Measures, for each service variant, Fig. 8-style lookup throughput
//! and an update (append+delete) throughput at a fixed client count,
//! plus mean lookup/update latencies — all on the **simulated** clock,
//! so numbers reflect protocol cost (packets, per-packet protocol CPU,
//! wire occupancy), not host speed — and appends one labelled run to
//! `BENCH_pipeline.json` so successive PRs can diff pipeline
//! performance. A second run with sequencer batching disabled
//! (`max_batch = 1`) quantifies what accept coalescing + cumulative
//! acks buy on the update path.
//!
//! A third run with RSM apply batching disabled (`apply_batch = 1`)
//! A/Bs what group commit buys on the disk-bound update path: the
//! update-throughput harness drives N closed-loop writers so the
//! replica driver sees real batches.
//!
//! A fourth, `<label>+internetwork`, A/Bs the flat LAN against a
//! two-segment routed topology (sequencer and half the members a
//! store-and-forward router hop apart): group-layer msgs/sec and
//! packets/msg, the directory service's lookup/update throughput, plus
//! `packets_forwarded` and per-segment wire utilization in the
//! `network` section — the numbers future routing PRs diff against.
//!
//! A fifth, `<label>+shards`, A/Bs the directory service sharded 1, 2
//! and 4 ways (flat, and with each shard's columns on their own segment
//! of a star internetwork), and — on the routed placement — multicast
//! pruning against TTL flooding: updates/s, `packets_forwarded` and
//! forwards per append.
//!
//! A sixth, `<label>+migration`, A/Bs a deliberately *skewed* placement
//! (every writer's directory on shard 0 of 4) against the same
//! deployment with the lease-fenced rebalancer on: the rebalancer
//! migrates the hot directories across the shards during warmup —
//! writers keep their original capabilities and follow the forwarding
//! stubs — and the measured window shows hot-shard throughput
//! recovering toward the balanced reference without a redeploy.
//!
//! A seventh, `<label>+readmix`, A/Bs the lease-fenced client-side
//! directory cache on a zipfian read-mostly mix at 4 shards: cache off
//! (the unmodified per-lookup RPC path, the regression anchor) vs on
//! (lookups served locally under live read leases), plus the cached
//! hit rate and the invalidation-storm probe — the latency of one
//! write that must revoke a fleet of outstanding leases before acking.
//!
//! An eighth, `<label>+recordtrace`, A/Bs the simulation kernel's
//! decision-trace recording (the `amoeba-explore` record mode) on vs
//! off over the group-layer run: the simulated numbers are asserted
//! identical — recording must never perturb the kernel — and the run
//! reports the host wall-clock overhead plus trace size.
//!
//! A ninth, `<label>+telemetry`, A/Bs the causal-tracing telemetry
//! layer on vs off over the same append burst: the simulated numbers
//! are asserted **bit-identical** (tracing rides out-of-band packet
//! metadata and never touches the scheduler), so the reported cost is
//! purely host wall-clock, alongside the span/flow counts recorded.
//! The update-burst and read-mix sections also report per-op-family
//! p50/p95/p99 latencies from the telemetry histograms.
//!
//! A tenth, `<label>+group-log`, A/Bs the journaled commit path on
//! the disk-bound update burst: the in-place flush (journal off) vs the
//! group log (journal on), flat and at 4 shards, head-aware disk
//! everywhere — so the delta is replacing each batch's table/Bullet/
//! commit-block writes with ONE sequential journal append (background
//! checkpointer doing the writeback off the commit path). Every point
//! reports disk seeks per append alongside throughput and per-family
//! p50/p95/p99 latencies.
//!
//! Run with: `cargo run -p amoeba-bench --release --bin pipeline -- <label>`
//! (append `--internetwork-only` / `--shards-only` / `--migration-only`
//! / `--read-mix-only` / `--record-only` / `--telemetry-only` /
//! `--group-log-only` to refresh just that run). The `ci-smoke` label runs a seconds-long
//! subset with tiny iteration counts against a scratch output file and
//! asserts the emitted JSON is valid — the CI guard against bench
//! bit-rot. The `trace` label instead runs one traced 4-shard cached
//! deployment and writes its Perfetto/Chrome trace to the given path
//! (default `BENCH_trace.json`), asserting the span tree is connected
//! and the export validates.

use std::path::PathBuf;
use std::time::Duration;

use amoeba_bench::summary::{append_run, RunSummary, VariantSummary};
use amoeba_bench::{append_delete_pair, lookup_once, mean_latency_ms, testbed_with, throughput};
use amoeba_dir_core::cluster::Variant;
use amoeba_dir_core::Rights;

/// Clients for the throughput windows (a mid-curve Fig. 8 point).
const N_CLIENTS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inet_only = args.iter().any(|a| a == "--internetwork-only");
    let shards_only = args.iter().any(|a| a == "--shards-only");
    let migration_only = args.iter().any(|a| a == "--migration-only");
    let read_mix_only = args.iter().any(|a| a == "--read-mix-only");
    let record_only = args.iter().any(|a| a == "--record-only");
    let telemetry_only = args.iter().any(|a| a == "--telemetry-only");
    let group_log_only = args.iter().any(|a| a == "--group-log-only");
    let mut pos = args.iter().filter(|a| !a.starts_with("--"));
    let label = pos
        .next()
        .cloned()
        .unwrap_or_else(|| "unlabelled".to_owned());
    let out_path = pos
        .next()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_pipeline.json"));
    if label == "ci-smoke" {
        ci_smoke();
        return;
    }
    if label == "trace" {
        let out = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .nth(1)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("BENCH_trace.json"));
        trace_export(&out);
        return;
    }
    if inet_only {
        let inet = internetwork_run(&label);
        append_run(&out_path, "pipeline", &inet).expect("write BENCH_pipeline.json");
        println!("appended internetwork run to {}", out_path.display());
        return;
    }
    if shards_only {
        let shards = shards_run(&label);
        append_run(&out_path, "pipeline", &shards).expect("write BENCH_pipeline.json");
        println!("appended shards run to {}", out_path.display());
        return;
    }
    if migration_only {
        let migration = migration_run(&label);
        append_run(&out_path, "pipeline", &migration).expect("write BENCH_pipeline.json");
        println!("appended migration run to {}", out_path.display());
        return;
    }
    if read_mix_only {
        let readmix = read_mix_run(&label);
        append_run(&out_path, "pipeline", &readmix).expect("write BENCH_pipeline.json");
        println!("appended read-mix run to {}", out_path.display());
        return;
    }
    if record_only {
        let record = record_overhead_run(&label);
        append_run(&out_path, "pipeline", &record).expect("write BENCH_pipeline.json");
        println!("appended record-overhead run to {}", out_path.display());
        return;
    }
    if telemetry_only {
        let telemetry = telemetry_overhead_run(&label);
        append_run(&out_path, "pipeline", &telemetry).expect("write BENCH_pipeline.json");
        println!("appended telemetry-overhead run to {}", out_path.display());
        return;
    }
    if group_log_only {
        let glog = group_log_run(&label);
        append_run(&out_path, "pipeline", &glog).expect("write BENCH_pipeline.json");
        println!("appended group-log run to {}", out_path.display());
        return;
    }
    println!("pipeline bench — run '{label}'");
    let mut run = RunSummary {
        label: label.clone(),
        ..Default::default()
    };
    for variant in [Variant::Group, Variant::GroupNvram, Variant::Rpc] {
        run.variants.push(measure(variant, None, None, false).0);
    }
    let (burst, burst_latency) = update_burst(Variant::Group, None);
    run.variants.push(burst);
    run.network.extend(burst_latency);
    run.group_pipeline = group_layer_points(16);
    run.micro = micro_points();
    append_run(&out_path, "pipeline", &run).expect("write BENCH_pipeline.json");

    // A/B one: same build, sequencer accept batching off. Only group
    // variants have a sequencer.
    let mut nobatch = RunSummary {
        label: format!("{label}+nobatch"),
        ..Default::default()
    };
    for variant in [Variant::Group, Variant::GroupNvram] {
        nobatch
            .variants
            .push(measure(variant, Some(1), None, false).0);
    }
    nobatch.group_pipeline = group_layer_points(1);
    append_run(&out_path, "pipeline", &nobatch).expect("write BENCH_pipeline.json");

    // A/B two: RSM apply batching (group commit) off — the update
    // path falls back to one durable flush per op.
    let mut noapply = RunSummary {
        label: format!("{label}+noapplybatch"),
        ..Default::default()
    };
    for variant in [Variant::Group, Variant::GroupNvram] {
        noapply
            .variants
            .push(measure(variant, None, Some(1), false).0);
    }
    let (burst, burst_latency) = update_burst(Variant::Group, Some(1));
    noapply.variants.push(burst);
    noapply.network.extend(burst_latency);
    append_run(&out_path, "pipeline", &noapply).expect("write BENCH_pipeline.json");

    // A/B three: flat LAN vs two-segment routed internetwork.
    let inet = internetwork_run(&label);
    append_run(&out_path, "pipeline", &inet).expect("write BENCH_pipeline.json");

    // A/B four: directory sharding (1/2/4 groups) and multicast
    // pruning vs flooding on the routed shard placement.
    let shards = shards_run(&label);
    append_run(&out_path, "pipeline", &shards).expect("write BENCH_pipeline.json");

    // A/B five: skewed hot-shard placement, static vs rebalanced.
    let migration = migration_run(&label);
    append_run(&out_path, "pipeline", &migration).expect("write BENCH_pipeline.json");

    // A/B six: the lease-fenced client cache on the zipfian read mix.
    let readmix = read_mix_run(&label);
    append_run(&out_path, "pipeline", &readmix).expect("write BENCH_pipeline.json");

    // A/B seven: kernel decision-trace recording on vs off.
    let record = record_overhead_run(&label);
    append_run(&out_path, "pipeline", &record).expect("write BENCH_pipeline.json");

    // A/B eight: causal-tracing telemetry on vs off.
    let telemetry = telemetry_overhead_run(&label);
    append_run(&out_path, "pipeline", &telemetry).expect("write BENCH_pipeline.json");

    // A/B nine: the group log (journaled commits, background writeback).
    let glog = group_log_run(&label);
    append_run(&out_path, "pipeline", &glog).expect("write BENCH_pipeline.json");
    println!("appended runs to {}", out_path.display());
}

/// The group-log A/B: the disk-bound update burst with the in-place
/// flush (`dir.journal` off) against the journaled commit path (on),
/// flat and sharded 4 ways — head-aware disk in every arm, so the delta
/// is purely commits moving from per-object table/Bullet/commit-block
/// writes to one sequential journal append with the checkpointer
/// draining the table in the background. Each point also reports disk
/// seeks per append (the mechanism) and the per-op-family p50/p95/p99
/// latencies.
fn group_log_run(label: &str) -> RunSummary {
    use amoeba_bench::sharded_update_burst_with;
    // 12 writers per shard: group commit is a bandwidth optimisation, so
    // the A/B offers each shard enough closed-loop concurrency to form
    // batches — with ~3 writers a shard both arms just measure
    // single-op latency.
    const N_WRITERS: usize = 48;
    let warmup = Duration::from_secs(1);
    let window = Duration::from_secs(8);
    let mut run = RunSummary {
        label: format!("{label}+group-log"),
        ..Default::default()
    };
    for shards in [1usize, 4] {
        let mut in_place = f64::NAN;
        for journal in [false, true] {
            let (r, latency) = sharded_update_burst_with(
                shards,
                false,
                true,
                N_WRITERS,
                warmup,
                window,
                0x6C0D,
                move |p| {
                    p.dir.journal = journal;
                    p.disk.head_aware = true;
                },
            );
            let name = format!(
                "group-log/shards={shards}/journal={}",
                if journal { "on" } else { "off" }
            );
            run.variants.push(VariantSummary {
                variant: format!("Group(3)/{name}"),
                n_clients: N_WRITERS,
                lookup_ops_per_sec: f64::NAN,
                update_ops_per_sec: r.ops_per_sec,
                lookup_latency_ms: f64::NAN,
                update_latency_ms: f64::NAN,
            });
            run.network
                .push((format!("{name}/seeks_per_op"), r.seeks_per_op));
            if journal {
                run.network
                    .push((format!("{name}/over_in_place"), r.ops_per_sec / in_place));
            } else {
                in_place = r.ops_per_sec;
            }
            for (family, p50, p95, p99) in &latency {
                run.network.push((format!("{name}/{family}/p50_ms"), *p50));
                run.network.push((format!("{name}/{family}/p95_ms"), *p95));
                run.network.push((format!("{name}/{family}/p99_ms"), *p99));
            }
            println!(
                "  {name}: {:.1} appends/s at {N_WRITERS} writers, {:.2} seeks/append{}",
                r.ops_per_sec,
                r.seeks_per_op,
                if journal {
                    format!(" ({:.2}× in place)", r.ops_per_sec / in_place)
                } else {
                    String::new()
                }
            );
        }
    }
    run
}

/// The record-mode A/B: the group-layer throughput run untraced vs
/// under [`amoeba_sim::Simulation::recording`]. Recording must never
/// perturb the kernel — the simulated-clock numbers are asserted
/// identical — so the costs are host-side only: wall-clock overhead and
/// the trace itself (steps, serialized bytes). These are the numbers
/// that say what `explore`'s record mode costs over fast mode.
fn record_overhead_run(label: &str) -> RunSummary {
    use amoeba_bench::group_pipeline::{group_send_throughput, group_send_throughput_recorded};
    use std::time::Instant;

    const MEMBERS: usize = 6;
    const SENDERS: usize = 2;
    let mut run = RunSummary {
        label: format!("{label}+recordtrace"),
        ..Default::default()
    };
    // Warm once (page in code paths), then time both modes.
    let _ = group_send_throughput(16, MEMBERS, SENDERS, 64, 0, 0x7EC0);
    let t = Instant::now();
    let off = group_send_throughput(16, MEMBERS, SENDERS, 64, 0, 0x7EC0);
    let off_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let on = group_send_throughput_recorded(16, MEMBERS, SENDERS, 64, 0, 0x7EC0);
    let on_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        off, on.result,
        "recording must not perturb the simulated run"
    );
    println!(
        "  record-overhead: {MEMBERS} members × {SENDERS} senders: {:.0} msgs/s either way; \
         host {:.0} ms untraced vs {:.0} ms recording ({:.2}×), {} steps, {} KiB trace",
        off.msgs_per_sec,
        off_ms,
        on_ms,
        on_ms / off_ms,
        on.trace_steps,
        on.trace_bytes / 1024
    );
    run.group_pipeline.push((
        format!("record/off/members={MEMBERS}/senders={SENDERS}/batch=16"),
        off.msgs_per_sec,
        off.packets_per_msg,
    ));
    run.group_pipeline.push((
        format!("record/on/members={MEMBERS}/senders={SENDERS}/batch=16"),
        on.result.msgs_per_sec,
        on.result.packets_per_msg,
    ));
    run.network.push(("record/off/host_wall_ms".into(), off_ms));
    run.network.push(("record/on/host_wall_ms".into(), on_ms));
    run.network
        .push(("record/host_overhead_ratio".into(), on_ms / off_ms));
    run.network
        .push(("record/trace_steps".into(), on.trace_steps as f64));
    run.network
        .push(("record/trace_bytes".into(), on.trace_bytes as f64));
    run
}

/// The telemetry-overhead A/B: the same closed-loop append burst with
/// the causal-tracing collector absent vs installed. Tracing rides
/// out-of-band packet metadata and never touches the simulated clock,
/// so the simulated numbers are asserted bit-identical — the only cost
/// is host wall-clock, which must stay within ~1.15× of the untraced
/// run.
fn telemetry_overhead_run(label: &str) -> RunSummary {
    use amoeba_bench::traced_update_burst;
    use std::time::Instant;

    const N_WRITERS: usize = 6;
    let warmup = Duration::from_secs(1);
    let window = Duration::from_secs(4);
    let mut run = RunSummary {
        label: format!("{label}+telemetry"),
        ..Default::default()
    };
    // Warm once (page in code paths), then time both arms.
    let _ = traced_update_burst(false, N_WRITERS, warmup, window, 0x7E1E);
    let t = Instant::now();
    let off = traced_update_burst(false, N_WRITERS, warmup, window, 0x7E1E);
    let off_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let on = traced_update_burst(true, N_WRITERS, warmup, window, 0x7E1E);
    let on_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        (off.ops_per_sec.to_bits(), off.end),
        (on.ops_per_sec.to_bits(), on.end),
        "telemetry must not perturb the simulated run"
    );
    println!(
        "  telemetry-overhead: {N_WRITERS} writers: {:.0} appends/s either way; \
         host {:.0} ms untraced vs {:.0} ms traced ({:.2}×), {} spans, {} flows",
        off.ops_per_sec,
        off_ms,
        on_ms,
        on_ms / off_ms,
        on.spans,
        on.flows
    );
    run.network
        .push(("telemetry/off/host_wall_ms".into(), off_ms));
    run.network
        .push(("telemetry/on/host_wall_ms".into(), on_ms));
    run.network
        .push(("telemetry/host_overhead_ratio".into(), on_ms / off_ms));
    run.network
        .push(("telemetry/spans".into(), on.spans as f64));
    run.network
        .push(("telemetry/flows".into(), on.flows as f64));
    run
}

/// `pipeline -- trace [out.json]`: runs a small traced 4-shard cached
/// deployment, drives one cross-shard keyed create (plus a lease-held
/// write so the revocation fan-out shows up), asserts the client op's
/// span tree is connected across ≥3 machines, and exports the whole
/// run as Chrome-trace-event JSON that `chrome://tracing` / Perfetto
/// can open. The export is re-parsed and validated before writing.
fn trace_export(out: &std::path::Path) {
    use amoeba_bench::testbed_traced;
    use amoeba_dir_core::{CacheParams, ClusterReport};

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
    // resolves (the read-mix idiom — a formation-time directory can sit
    // behind a replica that missed its create and refuses lease grants).
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
    let (reader, _) = tb.cluster.client(&tb.sim);
    let rd = reader.clone();
    tb.sim.spawn("trace-reader", move |ctx| {
        for _ in 0..60 {
            let _ = rd.lookup(ctx, dir, "payload");
            ctx.sleep(Duration::from_millis(50));
        }
    });
    let client = tb.client.clone();
    let root = tb.root;
    let done = tb.sim.spawn("trace-writer", move |ctx| {
        // Let the reader take its lease first.
        ctx.sleep(Duration::from_millis(500));
        client
            .append_row(ctx, dir, "traced", dir, vec![Rights::ALL, Rights::NONE])
            .expect("traced append");
        let sub = client
            .create_in(
                ctx,
                root,
                "subdir",
                &["owner", "other"],
                vec![Rights::ALL, Rights::ALL],
            )
            .expect("traced create_in");
        let _ = client.lookup(ctx, sub, "nothing");
        true
    });
    tb.sim.run_for(Duration::from_secs(10));
    assert_eq!(done.take(), Some(true), "traced workload completed");
    let reader_stats = reader.cache_stats().expect("reader has a cache");
    assert!(reader_stats.hits > 0, "the traced reader must serve hits");
    assert!(
        reader_stats.invalidations > 0,
        "the traced write must revoke the reader's lease"
    );

    let spans = tele.spans();
    let create_root = spans
        .iter()
        .find(|s| s.name == "cli.create_in" && s.parent == 0)
        .expect("cli.create_in root span");
    let (roots, orphans, machines) = amoeba_telemetry::span_tree_stats(&spans, create_root.trace);
    assert_eq!((roots, orphans), (1, 0), "create_in span tree connected");
    assert!(machines >= 3, "create_in touched only {machines} machines");
    assert!(
        spans.iter().any(|s| s.name == "cache.inval"),
        "the revocation fan-out must appear as cache.inval spans"
    );

    let json = tele.export_chrome_json();
    let summary = amoeba_telemetry::validate_chrome_trace(&json).expect("exported trace validates");
    std::fs::write(out, &json).expect("write trace file");

    // The unified snapshot: one report over the whole deployment.
    let mut report = ClusterReport::collect(&tb.cluster, &tb.sim.handle());
    if let Some(cs) = tb.client.cache_stats() {
        report.add_client("writer", cs);
    }
    if let Some(cs) = reader.cache_stats() {
        report.add_client("reader", cs);
    }
    let (applied, sends, writes) = report.totals();
    println!(
        "  {} events ({} slices, {} flow pairs, {} tracks); create_in tree: \
         1 root, 0 orphans, {machines} machines",
        summary.events, summary.slices, summary.flow_pairs, summary.tracks
    );
    println!("  cluster totals: {applied} ops applied, {sends} group sends, {writes} disk writes");
    print_busiest_roles(&tb.sim.activations());
    println!("{}", report.to_json());
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

/// The cached-read-path A/B: the zipfian read mix (readers resolving
/// Zipf-distributed directories, writers invalidating the same
/// distribution) at 4 shards, cache off then on — parameter-identical
/// deployments, so the cache-off row doubles as the regression anchor
/// for the unmodified per-lookup RPC path (~Fig. 8's 5-client point).
/// The `network` section records the cached hit rate, the speedup, and
/// the invalidation-storm probe: the latency of one write that must
/// revoke a fleet of outstanding read leases before acking.
fn read_mix_run(label: &str) -> RunSummary {
    use amoeba_bench::{invalidation_storm, read_mix_burst};
    const SHARDS: usize = 4;
    const N_READERS: usize = 5;
    const N_WRITERS: usize = 2;
    const N_DIRS: usize = 48;
    let warmup = Duration::from_secs(2);
    let window = Duration::from_secs(10);
    let mut run = RunSummary {
        label: format!("{label}+readmix"),
        ..Default::default()
    };
    // The regression anchor first: the same harness with no writers and
    // no cache is exactly the seed's read path (one RPC per lookup) —
    // it must stay within noise of the classic 5-client Fig. 8 point.
    let anchor = read_mix_burst(SHARDS, false, N_READERS, 0, N_DIRS, warmup, window, 0xCAC4E);
    println!(
        "  read-mix/cache-off/read-only: {:.1} lookups/s (seed anchor)",
        anchor.lookups_per_sec
    );
    run.variants.push(VariantSummary {
        variant: format!("Group(3)/read-mix/shards={SHARDS}/cache-off/read-only"),
        n_clients: N_READERS,
        lookup_ops_per_sec: anchor.lookups_per_sec,
        update_ops_per_sec: f64::NAN,
        lookup_latency_ms: f64::NAN,
        update_latency_ms: f64::NAN,
    });
    let mut rates = [0.0f64; 2];
    for cached in [false, true] {
        let tag = if cached { "cached" } else { "cache-off" };
        let r = read_mix_burst(
            SHARDS, cached, N_READERS, N_WRITERS, N_DIRS, warmup, window, 0xCAC4E,
        );
        rates[usize::from(cached)] = r.lookups_per_sec;
        println!(
            "  read-mix/{tag}: {:.1} lookups/s, {:.1} update pairs/s \
             ({:.1} ms/pair), hit rate {:.3}",
            r.lookups_per_sec, r.updates_per_sec, r.update_latency_ms, r.hit_rate
        );
        run.variants.push(VariantSummary {
            variant: format!("Group(3)/read-mix/shards={SHARDS}/{tag}"),
            n_clients: N_READERS + N_WRITERS,
            lookup_ops_per_sec: r.lookups_per_sec,
            update_ops_per_sec: r.updates_per_sec,
            lookup_latency_ms: f64::NAN,
            update_latency_ms: r.update_latency_ms,
        });
        if cached {
            run.network
                .push(("read-mix/cached/hit_rate".into(), r.hit_rate));
            run.network.push((
                "read-mix/cached/invalidations".into(),
                r.cache.invalidations as f64,
            ));
            run.network
                .push(("read-mix/cached/renewals".into(), r.cache.renewals as f64));
            run.network.push((
                "read-mix/cached/renewals_saved".into(),
                r.cache.renewals_saved as f64,
            ));
        }
        // Per-op-family latency percentiles from the telemetry layer.
        for (family, p50, p95, p99) in &r.latency {
            run.network
                .push((format!("read-mix/{tag}/{family}/p50_ms"), *p50));
            run.network
                .push((format!("read-mix/{tag}/{family}/p95_ms"), *p95));
            run.network
                .push((format!("read-mix/{tag}/{family}/p99_ms"), *p99));
        }
    }
    run.network.push((
        "read-mix/cached_over_off_speedup".into(),
        rates[1] / rates[0],
    ));
    let s = invalidation_storm(SHARDS, 8, 0xCAC4E);
    println!(
        "  read-mix/inval-storm: one write over 8 lease holders acked in {:.1} ms \
         ({} entries dropped)",
        s.write_latency_ms, s.invalidations
    );
    run.network.push((
        "read-mix/inval-storm/write_latency_ms".into(),
        s.write_latency_ms,
    ));
    run.network.push((
        "read-mix/inval-storm/invalidations".into(),
        s.invalidations as f64,
    ));
    run
}

/// The migration A/B: every writer's directory on shard 0 of 4 (the
/// hotspot static placement cannot shed), measured with the rebalancer
/// off (static skew) and on (hot directories migrated across the shards
/// during warmup, writers following forwarding stubs), plus the
/// balanced-placement reference at the same writer count.
fn migration_run(label: &str) -> RunSummary {
    use amoeba_bench::{migration_burst, sharded_update_burst};
    const N_WRITERS: usize = 12;
    const SHARDS: usize = 4;
    // Rebalancing is not instant: each migration's stub-install queues
    // behind the hot shard's own writers, so draining a 12-directory
    // hotspot takes tens of seconds — the warmup covers it, and the
    // window then measures the steady rebalanced state.
    let warmup = Duration::from_secs(30);
    let window = Duration::from_secs(8);
    let mut run = RunSummary {
        label: format!("{label}+migration"),
        ..Default::default()
    };
    let balanced = sharded_update_burst(
        SHARDS,
        false,
        true,
        N_WRITERS,
        Duration::from_secs(1),
        window,
        0x316,
    );
    println!(
        "  migration/balanced-reference: {:.1} appends/s at {N_WRITERS} writers",
        balanced.ops_per_sec
    );
    run.variants.push(VariantSummary {
        variant: format!("Group(3)/migration/shards={SHARDS}/balanced-reference"),
        n_clients: N_WRITERS,
        lookup_ops_per_sec: f64::NAN,
        update_ops_per_sec: balanced.ops_per_sec,
        lookup_latency_ms: f64::NAN,
        update_latency_ms: f64::NAN,
    });
    for rebalance in [false, true] {
        let tag = if rebalance { "rebalanced" } else { "static" };
        let r = migration_burst(SHARDS, rebalance, N_WRITERS, warmup, window, 0x316);
        println!(
            "  migration/skewed/{tag}: {:.1} appends/s, {} dirs migrated off the hot shard",
            r.ops_per_sec, r.migrated
        );
        run.variants.push(VariantSummary {
            variant: format!("Group(3)/migration/shards={SHARDS}/skewed/{tag}"),
            n_clients: N_WRITERS,
            lookup_ops_per_sec: f64::NAN,
            update_ops_per_sec: r.ops_per_sec,
            lookup_latency_ms: f64::NAN,
            update_latency_ms: f64::NAN,
        });
        run.network.push((
            format!("migration/skewed/{tag}/hot_shard_stubs"),
            r.migrated as f64,
        ));
    }
    run
}

/// The sharding A/B: update-burst throughput at 1, 2 and 4 shards on a
/// flat LAN; then the 4-shard deployment with each shard on its own
/// segment of a star internetwork, once with the routers' multicast
/// pruning (the default) and once with TTL flooding — same member
/// count, so the forwards-per-append delta is pruning alone.
fn shards_run(label: &str) -> RunSummary {
    use amoeba_bench::sharded_update_burst;
    const N_WRITERS: usize = 12;
    let warmup = Duration::from_secs(1);
    let window = Duration::from_secs(8);
    let mut run = RunSummary {
        label: format!("{label}+shards"),
        ..Default::default()
    };
    for shards in [1usize, 2, 4] {
        let r = sharded_update_burst(shards, false, true, N_WRITERS, warmup, window, 0x5A4D);
        println!(
            "  shards/flat/{shards}: {:.1} appends/s at {N_WRITERS} writers",
            r.ops_per_sec
        );
        run.variants.push(VariantSummary {
            variant: format!("Group(3)/update-burst/shards={shards}/flat"),
            n_clients: N_WRITERS,
            lookup_ops_per_sec: f64::NAN,
            update_ops_per_sec: r.ops_per_sec,
            lookup_latency_ms: f64::NAN,
            update_latency_ms: f64::NAN,
        });
    }
    for pruning in [true, false] {
        let tag = if pruning { "pruned" } else { "flooded" };
        let r = sharded_update_burst(4, true, pruning, N_WRITERS, warmup, window, 0x5A4D);
        println!(
            "  shards/routed4/{tag}: {:.1} appends/s, {} forwarded ({:.2}/append), {} pruned",
            r.ops_per_sec, r.packets_forwarded, r.forwarded_per_op, r.mcast_pruned
        );
        run.variants.push(VariantSummary {
            variant: format!("Group(3)/update-burst/shards=4/routed-star/{tag}"),
            n_clients: N_WRITERS,
            lookup_ops_per_sec: f64::NAN,
            update_ops_per_sec: r.ops_per_sec,
            lookup_latency_ms: f64::NAN,
            update_latency_ms: f64::NAN,
        });
        run.network.push((
            format!("shards/routed4/{tag}/packets_forwarded"),
            r.packets_forwarded as f64,
        ));
        run.network.push((
            format!("shards/routed4/{tag}/forwarded_per_append"),
            r.forwarded_per_op,
        ));
        run.network.push((
            format!("shards/routed4/{tag}/mcast_pruned"),
            r.mcast_pruned as f64,
        ));
    }
    run
}

/// Seconds-long CI guard: runs one tiny point of each harness family
/// against a scratch output file and asserts the emitted JSON has the
/// writer's shape — catches bench bit-rot before a perf PR needs the
/// full run.
fn ci_smoke() {
    use amoeba_bench::group_pipeline::{group_send_throughput, group_send_throughput_recorded};
    use amoeba_bench::{migration_burst, sharded_update_burst};

    println!("pipeline bench — ci-smoke");
    let mut run = RunSummary {
        label: "ci-smoke".to_owned(),
        ..Default::default()
    };
    // Group layer: one small flat point.
    let g = group_send_throughput(16, 3, 1, 64, 0, 0xC1);
    assert!(
        g.msgs_per_sec > 0.0,
        "group-layer smoke run must deliver messages"
    );
    run.group_pipeline.push((
        "ci-smoke/members=3/senders=1/batch=16".to_owned(),
        g.msgs_per_sec,
        g.packets_per_msg,
    ));
    // Record mode: the same point under kernel-trace recording must
    // reproduce the untraced run exactly and yield a non-empty trace.
    let rec = group_send_throughput_recorded(16, 3, 1, 64, 0, 0xC1);
    assert_eq!(
        g, rec.result,
        "ci-smoke: recording must not perturb the simulated run"
    );
    assert!(rec.trace_steps > 0, "ci-smoke: recording must trace steps");
    run.network
        .push(("record/trace_steps".into(), rec.trace_steps as f64));
    // Sharded service: a tiny 2-shard burst (short window, few writers).
    let r = sharded_update_burst(
        2,
        false,
        true,
        2,
        Duration::from_millis(500),
        Duration::from_secs(2),
        0xC1,
    );
    assert!(
        r.ops_per_sec > 0.0,
        "sharded update-burst smoke run must complete appends"
    );
    run.variants.push(VariantSummary {
        variant: "ci-smoke/update-burst/shards=2".to_owned(),
        n_clients: 2,
        lookup_ops_per_sec: f64::NAN,
        update_ops_per_sec: r.ops_per_sec,
        lookup_latency_ms: f64::NAN,
        update_latency_ms: f64::NAN,
    });
    // Migration harness: a tiny skewed run with the rebalancer on —
    // asserts the skew machinery, the lease-fenced rebalancer and the
    // forwarding path all still drive end to end.
    let m = migration_burst(
        2,
        true,
        2,
        Duration::from_secs(3),
        Duration::from_secs(3),
        0xC1,
    );
    assert!(
        m.ops_per_sec > 0.0,
        "migration smoke run must complete appends"
    );
    assert!(
        m.migrated >= 1,
        "the rebalancer must migrate at least one hot directory"
    );
    run.variants.push(VariantSummary {
        variant: "ci-smoke/migration/skewed/rebalanced".to_owned(),
        n_clients: 2,
        lookup_ops_per_sec: f64::NAN,
        update_ops_per_sec: m.ops_per_sec,
        lookup_latency_ms: f64::NAN,
        update_latency_ms: f64::NAN,
    });
    run.network.push((
        "migration/skewed/rebalanced/hot_shard_stubs".into(),
        m.migrated as f64,
    ));
    // Cached read mix: a tiny 2-shard zipfian run with the client
    // cache on — asserts the lease grant, local-hit and
    // revoke-before-ack paths all still drive end to end.
    let rm = amoeba_bench::read_mix_burst(
        2,
        true,
        2,
        1,
        8,
        Duration::from_millis(500),
        Duration::from_secs(2),
        0xC1,
    );
    assert!(
        rm.lookups_per_sec > 0.0,
        "read-mix smoke run must complete lookups"
    );
    assert!(
        rm.hit_rate > 0.0,
        "the cached read-mix smoke run must serve lookups locally"
    );
    assert!(
        rm.updates_per_sec > 0.0,
        "read-mix smoke run must complete (lease-revoking) updates"
    );
    run.variants.push(VariantSummary {
        variant: "ci-smoke/read-mix/shards=2/cached".to_owned(),
        n_clients: 3,
        lookup_ops_per_sec: rm.lookups_per_sec,
        update_ops_per_sec: rm.updates_per_sec,
        lookup_latency_ms: f64::NAN,
        update_latency_ms: rm.update_latency_ms,
    });
    run.network
        .push(("read-mix/cached/hit_rate".into(), rm.hit_rate));
    assert!(
        rm.latency.iter().any(|(f, ..)| f == "cli.lookup"),
        "read-mix smoke run must report cli.lookup latency percentiles"
    );
    for (family, p50, p95, p99) in &rm.latency {
        run.network
            .push((format!("read-mix/cached/{family}/p50_ms"), *p50));
        run.network
            .push((format!("read-mix/cached/{family}/p95_ms"), *p95));
        run.network
            .push((format!("read-mix/cached/{family}/p99_ms"), *p99));
    }
    // The group log, in its own `+group-log` run: a tiny flat burst with
    // the journal off and on. Both must complete appends, AND the
    // journaled one must spend fewer head seeks per append than the
    // in-place flush — the cheap end-to-end signal that commits really
    // went down the journaled path (one sequential record append
    // instead of table/Bullet/commit-block writes).
    let mut prun = RunSummary {
        label: "ci-smoke+group-log".to_owned(),
        ..Default::default()
    };
    let smoke_burst = |journal: bool| {
        amoeba_bench::sharded_update_burst_with(
            1,
            false,
            true,
            2,
            Duration::from_millis(500),
            Duration::from_secs(2),
            0xC1,
            move |pa| {
                pa.dir.journal = journal;
                pa.disk.head_aware = true;
            },
        )
        .0
    };
    let (in_place, journaled) = (smoke_burst(false), smoke_burst(true));
    for (name, p) in [("journal=off", &in_place), ("journal=on", &journaled)] {
        assert!(
            p.ops_per_sec > 0.0,
            "group-log smoke run ({name}) must complete appends"
        );
        prun.variants.push(VariantSummary {
            variant: format!("ci-smoke/group-log/{name}"),
            n_clients: 2,
            lookup_ops_per_sec: f64::NAN,
            update_ops_per_sec: p.ops_per_sec,
            lookup_latency_ms: f64::NAN,
            update_latency_ms: f64::NAN,
        });
        prun.network
            .push((format!("group-log/{name}/seeks_per_op"), p.seeks_per_op));
    }
    assert!(
        journaled.seeks_per_op < in_place.seeks_per_op,
        "the journaled path must seek less per append than the \
         in-place flush ({:.2} vs {:.2})",
        journaled.seeks_per_op,
        in_place.seeks_per_op
    );
    // Causal tracing: a tiny traced deployment must export Chrome trace
    // JSON that re-parses with a connected client-op span tree.
    let (mut ttb, tele) = amoeba_bench::testbed_traced(Variant::Group, 0xC1, |p| p.shards = 2);
    let client = ttb.client.clone();
    let root = ttb.root;
    let done = ttb.sim.spawn("ci-trace", move |ctx| {
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
    ttb.sim.run_for(Duration::from_secs(10));
    assert_eq!(done.take(), Some(true), "ci-smoke: traced create_in");
    let spans = tele.spans();
    let root_span = spans
        .iter()
        .find(|s| s.name == "cli.create_in" && s.parent == 0)
        .expect("ci-smoke: cli.create_in root span");
    let (roots, orphans, machines) = amoeba_telemetry::span_tree_stats(&spans, root_span.trace);
    assert_eq!(
        (roots, orphans),
        (1, 0),
        "ci-smoke: create_in span tree must be connected"
    );
    assert!(
        machines >= 3,
        "ci-smoke: traced create_in touched only {machines} machines"
    );
    let trace_json = tele.export_chrome_json();
    let tsum = amoeba_telemetry::validate_chrome_trace(&trace_json)
        .expect("ci-smoke: exported trace must validate");
    assert!(
        tsum.flow_pairs > 0,
        "ci-smoke: the trace must bind flow arrows to slices"
    );
    run.network
        .push(("trace/slices".into(), tsum.slices as f64));
    run.micro = micro_points();
    // Emit to a scratch file and verify the JSON shape end to end
    // (append twice: creation and the splice-before-footer path).
    let path = std::env::temp_dir().join(format!("BENCH_ci_smoke_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    append_run(&path, "pipeline", &run).expect("ci-smoke: write json");
    append_run(&path, "pipeline", &run).expect("ci-smoke: append json");
    append_run(&path, "pipeline", &prun).expect("ci-smoke: append group-log json");
    let text = std::fs::read_to_string(&path).expect("ci-smoke: read back");
    assert!(
        text.starts_with("{\n  \"bench\": \"pipeline\"") && text.ends_with("\n  ]\n}\n"),
        "ci-smoke: unexpected JSON shape"
    );
    assert_eq!(
        text.matches("\"label\": \"ci-smoke\"").count(),
        2,
        "ci-smoke: both runs must be present"
    );
    assert!(
        text.contains("ci-smoke/migration/skewed/rebalanced")
            && text.contains("migration/skewed/rebalanced/hot_shard_stubs"),
        "ci-smoke: the migration section must be present in the JSON"
    );
    assert!(
        text.contains("ci-smoke/read-mix/shards=2/cached")
            && text.contains("read-mix/cached/hit_rate"),
        "ci-smoke: the read-mix section must be present in the JSON"
    );
    assert!(
        text.contains("read-mix/cached/cli.lookup/p50_ms") && text.contains("/p99_ms"),
        "ci-smoke: latency percentile entries must be present in the JSON"
    );
    assert!(
        text.contains("\"label\": \"ci-smoke+group-log\"")
            && text.contains("ci-smoke/group-log/journal=off")
            && text.contains("ci-smoke/group-log/journal=on")
            && text.contains("group-log/journal=on/seeks_per_op"),
        "ci-smoke: the +group-log section must be present in the JSON"
    );
    std::fs::remove_file(&path).expect("ci-smoke: cleanup");
    println!(
        "ci-smoke ok: group {:.0} msgs/s, 2-shard burst {:.1} appends/s, \
         migration burst {:.1} appends/s ({} migrated), cached read mix \
         {:.1} lookups/s at hit rate {:.2}, json shape valid",
        g.msgs_per_sec, r.ops_per_sec, m.ops_per_sec, m.migrated, rm.lookups_per_sec, rm.hit_rate
    );
}

/// The flat-vs-routed internetwork A/B: the same group-layer workload
/// on one Ethernet and on two segments split by a router (sequencer on
/// `net-a`, half the members on `net-b`), plus the full directory
/// service on the routed split.
fn internetwork_run(label: &str) -> RunSummary {
    use amoeba_bench::group_pipeline::group_send_throughput_on;
    use amoeba_flip::{SegmentId, Topology};

    let mut run = RunSummary {
        label: format!("{label}+internetwork"),
        ..Default::default()
    };
    const MEMBERS: usize = 6;
    const SENDERS: usize = 2;
    for routed in [false, true] {
        let (topo, placement, tag) = if routed {
            // Member 0 (the sequencer) on net-a; members alternate, so
            // half the accept fan-out crosses the router.
            (
                Topology::two_segments(),
                vec![SegmentId(0), SegmentId(1)],
                "routed2seg",
            )
        } else {
            (Topology::single(), vec![], "flat")
        };
        let r = group_send_throughput_on(topo, &placement, 16, MEMBERS, SENDERS, 64, 0, 0x16E7);
        println!(
            "  internetwork/{tag}: {MEMBERS} members × {SENDERS} senders: {:.0} msgs/s, \
             {:.2} packets/msg, {} forwarded ({:.2}/msg)",
            r.msgs_per_sec, r.packets_per_msg, r.packets_forwarded, r.forwarded_per_msg
        );
        run.group_pipeline.push((
            format!("internetwork/{tag}/members={MEMBERS}/senders={SENDERS}/batch=16"),
            r.msgs_per_sec,
            r.packets_per_msg,
        ));
        run.network.push((
            format!("internetwork/{tag}/packets_forwarded"),
            r.packets_forwarded as f64,
        ));
        run.network.push((
            format!("internetwork/{tag}/forwarded_per_msg"),
            r.forwarded_per_msg,
        ));
        for (seg, util) in &r.seg_utilization {
            println!("    segment {seg}: {:.1}% wire utilization", util * 100.0);
            run.network
                .push((format!("internetwork/{tag}/utilization/{seg}"), *util));
        }
    }
    // The full directory service over the routed split (lookups never
    // cross the router — the client's expanding ring finds the local
    // replica — while every update's accept fan-out does), measured by
    // the exact protocol the flat variants use.
    let (routed_variant, forwarded) = measure(Variant::Group, None, None, true);
    run.network.push((
        "internetwork/Group(3)/routed2seg/packets_forwarded".into(),
        forwarded as f64,
    ));
    run.variants.push(routed_variant);
    run
}

/// Host-time micro-benchmarks of the zero-copy codec path (these, unlike
/// the simulated-clock numbers, shrink with the `Payload` refactor).
fn micro_points() -> Vec<(String, f64)> {
    use amoeba_bench::microbench::bench;
    use amoeba_dir_core::{Capability, DirOp, Rights};
    use amoeba_flip::{Payload, Port};
    use amoeba_group::{AcceptBody, GroupMsg, MemberId};
    use std::hint::black_box;

    let op = DirOp::Append {
        object: 5,
        name: "some-file-name".into(),
        cap: Capability::owner(Port::from_name("bullet"), 9, 31),
        col_rights: vec![Rights::ALL, Rights::NONE],
    };
    let mut out = Vec::new();
    let r = bench("micro/dir_op_encode", || {
        black_box(op.encode());
    });
    out.push((r.name, r.ns_per_op));
    let accept = GroupMsg::Accept {
        instance: 1,
        incarnation: 0,
        seq: 42,
        from: MemberId(1),
        from_tag: 1,
        msgid: 7,
        body: AcceptBody::Data(vec![0u8; 256].into()),
    };
    let wire = accept.encode();
    let r = bench("micro/group_accept_decode_256B", || {
        black_box(GroupMsg::decode(&wire).unwrap());
    });
    out.push((r.name, r.ns_per_op));
    let payload = Payload::from(vec![0u8; 4096]);
    let r = bench("micro/payload_clone_4KiB", || {
        black_box(payload.clone());
    });
    out.push((r.name, r.ns_per_op));
    let r = bench("micro/payload_slice_4KiB", || {
        black_box(payload.slice(64..1024));
    });
    out.push((r.name, r.ns_per_op));
    out.extend(sim_kernel_points());
    out.extend(kernel_handler_points());
    out
}

/// Host ns per kernel event at the two ends of the simulator's cost: an
/// event that wakes another process (one thread hand-off) and one that
/// wakes the process that dispatched it (none). The timings are printed;
/// what is asserted is the exact hand-off count behind each.
fn sim_kernel_points() -> Vec<(String, f64)> {
    use amoeba_sim::Simulation;
    const ROUNDS: u64 = 20_000;
    let time = |name: &str, sim: &mut Simulation| {
        let t0 = std::time::Instant::now();
        let stats = sim.run();
        let ns = t0.elapsed().as_nanos() as f64 / stats.events as f64;
        println!(
            "{name:<44} {ns:>14.1} ns/event ({} events, {} hand-offs)",
            stats.events, stats.handoffs
        );
        (stats, (name.to_owned(), ns))
    };

    let mut sim = Simulation::new(1);
    let (to_b, b_rx) = sim.channel::<u64>();
    let (to_a, a_rx) = sim.channel::<u64>();
    sim.spawn("ping", move |ctx| {
        for i in 0..ROUNDS {
            to_b.send(i);
            a_rx.recv(ctx);
        }
    });
    sim.spawn("pong", move |ctx| {
        for _ in 0..ROUNDS {
            to_a.send(b_rx.recv(ctx));
        }
    });
    let (stats, handoff) = time("micro/sim_handoff", &mut sim);
    // Events: two starts and one delivery per message. Hand-offs: driver
    // → ping, ping → pong at pong's start (pong then takes the first ping
    // off its own dispatch), one per later message, and back to the driver.
    assert_eq!(
        (stats.events, stats.handoffs),
        (2 * ROUNDS + 2, 2 * ROUNDS + 2),
        "sim_handoff: one hand-off per message"
    );

    let mut sim = Simulation::new(1);
    sim.spawn("sleeper", |ctx| {
        for _ in 0..2 * ROUNDS {
            ctx.sleep(Duration::from_millis(1));
        }
    });
    let (stats, self_wake) = time("micro/sim_self_wake", &mut sim);
    assert_eq!(
        (stats.events, stats.handoffs),
        (2 * ROUNDS + 1, 2),
        "sim_self_wake: no hand-off between the driver's first and last"
    );
    vec![handoff, self_wake]
}

/// Host ns per null RPC and per ordered group send: the two paths whose
/// packet demultiplexing is kernel handlers, not processes. Printed; what
/// is asserted is the exact hand-offs per call, which a dispatcher hop
/// anywhere on either path would raise.
fn kernel_handler_points() -> Vec<(String, f64)> {
    use amoeba_flip::{NetParams, Network, Port};
    use amoeba_group::{GroupConfig, GroupPeer};
    use amoeba_rpc::{RpcClient, RpcNode, RpcServer};
    use amoeba_sim::{SimTime, Simulation};
    const CALLS: u64 = 1_000;
    // Every set-up below is done, and the caller asleep until `start`,
    // well before `warm`.
    let (warm, start) = (SimTime::from_secs(4), SimTime::from_secs(5));
    // Runs the warm-up, then times the calls; `per_call` hand-offs each,
    // plus the driver's hand-off to the caller and the one back.
    let time = |name: &str, sim: &mut Simulation, end: Option<SimTime>, per_call: u64| {
        let before = sim.run_until(warm);
        let t0 = std::time::Instant::now();
        let after = match end {
            Some(end) => sim.run_until(end),
            None => sim.run(),
        };
        let ns = t0.elapsed().as_nanos() as f64 / CALLS as f64;
        let handoffs = after.handoffs - before.handoffs;
        println!(
            "{name:<44} {ns:>14.1} ns/call ({handoffs} hand-offs, {} handler calls)",
            after.handler_calls - before.handler_calls
        );
        assert_eq!(
            handoffs,
            per_call * CALLS + 2,
            "{name}: {per_call} hand-offs per call"
        );
        (name.to_owned(), ns)
    };

    // Two machines, one server thread, null requests and replies.
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let service = Port::from_name("null");
    let nodes = ["server", "client"].map(|name| {
        let sim_node = sim.add_node(name);
        (sim_node, RpcNode::start(&sim, sim_node, net.attach()))
    });
    let (server_node, server) = (nodes[0].0, RpcServer::new(&nodes[0].1, service));
    sim.spawn_on(server_node, "null-server", move |ctx| loop {
        let req = server.getreq(ctx);
        server.putrep(&req, Vec::new());
    });
    let client = RpcClient::new(&nodes[1].1);
    let done = sim.spawn_on(nodes[1].0, "caller", move |ctx| {
        // The locate, and the port cache filled.
        client
            .trans(ctx, service, Vec::new())
            .expect("warm-up call");
        ctx.sleep_until(start);
        for _ in 0..CALLS {
            client.trans(ctx, service, Vec::new()).expect("null call");
        }
    });
    // Caller → server thread → caller: the RPC kernel on either machine
    // wakes no one.
    let rpc = time("micro/rpc_null_call", &mut sim, None, 2);
    assert!(done.is_ready(), "rpc_null_call: every call returned");

    // Three members; member 1 (not the sequencer) sends, and every
    // member has a receiver taking each message off.
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let port = Port::from_name("micro-group");
    let members = [0, 1, 2u64].map(|i| {
        let sim_node = sim.add_node(&format!("m{i}"));
        let peer = GroupPeer::start(&sim, sim_node, net.attach(), GroupConfig::lan());
        sim.spawn_on(sim_node, &format!("member{i}"), move |ctx| {
            let g = std::sync::Arc::new(if i == 0 {
                peer.create(port, i)
            } else {
                ctx.sleep(Duration::from_millis(10 * i));
                peer.join(ctx, port, i, Duration::from_secs(5))
                    .expect("join")
            });
            while g.info().expect("a member").view.len() < 3 {
                ctx.sleep(Duration::from_millis(5));
            }
            if i == 1 {
                let g = std::sync::Arc::clone(&g);
                ctx.spawn("sender", move |ctx| {
                    ctx.sleep_until(start);
                    for _ in 0..CALLS {
                        g.send(ctx, vec![0xA5u8; 64]).expect("ordered send");
                    }
                });
            }
            let mut got = 0;
            while got < CALLS {
                if let Ok(amoeba_group::GroupEvent::Message { .. }) = g.recv(ctx) {
                    got += 1;
                }
            }
        })
    });
    // The sender and the three receivers are each woken once per message;
    // the three group kernels, their ticks included, wake no one.
    let end = SimTime::from_secs(60);
    let group = time("micro/group_send", &mut sim, Some(end), 4);
    assert!(
        members.iter().all(|m| m.is_ready()),
        "group_send: every member got every message"
    );
    vec![rpc, group]
}

/// Raw `SendToGroup` throughput (the layer accept batching optimizes),
/// at two member counts, with `max_batch` under test.
fn group_layer_points(max_batch: usize) -> Vec<(String, f64, f64)> {
    use amoeba_bench::group_pipeline::group_send_throughput;
    let mut out = Vec::new();
    for (members, senders) in [(3usize, 3usize), (6, 2)] {
        let r = group_send_throughput(max_batch, members, senders, 64, 0, 0x6E0);
        println!(
            "  group layer: {members} members × {senders} senders, batch={max_batch}: \
             {:.0} msgs/s, {:.2} packets/msg",
            r.msgs_per_sec, r.packets_per_msg
        );
        out.push((
            format!("members={members}/senders={senders}/batch={max_batch}"),
            r.msgs_per_sec,
            r.packets_per_msg,
        ));
    }
    out
}

/// The update-throughput harness the apply-batching A/B hinges on:
/// many closed-loop writers appending unique rows to one directory, so
/// the replica driver sees deep batches and group commit coalesces
/// their disk work. One durable flush per *batch* instead of per *op*.
fn update_burst(
    variant: Variant,
    apply_batch: Option<usize>,
) -> (VariantSummary, Vec<(String, f64)>) {
    use amoeba_dir_core::{DirClientError, DirError};
    const N_WRITERS: usize = 12;
    let mut label = format!("{}/update-burst", variant.label());
    if let Some(b) = apply_batch {
        label.push_str(&format!("/applybatch={b}"));
    }
    println!("  update burst {label}...");
    let tweak = move |p: &mut amoeba_dir_core::cluster::ClusterParams| {
        if let Some(b) = apply_batch {
            p.dir.apply_batch = b;
        }
    };
    let mut tb = testbed_with(variant, 0xB57 + N_WRITERS as u64, tweak);
    // Percentiles for the burst itself: metrics-only, installed after
    // the testbed formed so setup ops stay out of the histograms.
    let tele = amoeba_telemetry::Telemetry::install_metrics_only(&tb.sim.handle());
    let ops = throughput(
        &mut tb,
        N_WRITERS,
        Duration::from_secs(1),
        Duration::from_secs(8),
        |ctx, client, root, c, k| {
            let name = format!("b{c}-{k}");
            for _ in 0..6 {
                match client.append_row(ctx, root, &name, root, vec![Rights::ALL, Rights::NONE]) {
                    Ok(()) => return true,
                    Err(DirClientError::Service(DirError::DuplicateName)) => return true,
                    Err(_) => ctx.sleep(Duration::from_millis(10)),
                }
            }
            false
        },
    );
    println!("    {ops:.0} appends/s at {N_WRITERS} writers");
    let mut points = Vec::new();
    for (family, p50, p95, p99) in amoeba_bench::latency_rows(&tele.metrics()) {
        points.push((format!("{label}/{family}/p50_ms"), p50));
        points.push((format!("{label}/{family}/p95_ms"), p95));
        points.push((format!("{label}/{family}/p99_ms"), p99));
    }
    (
        VariantSummary {
            variant: label,
            n_clients: N_WRITERS,
            lookup_ops_per_sec: f64::NAN,
            update_ops_per_sec: ops,
            lookup_latency_ms: f64::NAN,
            update_latency_ms: f64::NAN,
        },
        points,
    )
}

/// Latency + throughput of one variant configuration. Returns the
/// summary and the total packets routers forwarded across the phase
/// testbeds (0 unless `routed`).
fn measure(
    variant: Variant,
    max_batch: Option<usize>,
    apply_batch: Option<usize>,
    routed: bool,
) -> (VariantSummary, u64) {
    use amoeba_dir_core::cluster::ClusterTopology;
    let mut label = variant.label().to_owned();
    if let Some(b) = max_batch {
        label.push_str(&format!("/batch={b}"));
    }
    if let Some(b) = apply_batch {
        label.push_str(&format!("/applybatch={b}"));
    }
    if routed {
        label.push_str("/routed2seg");
    }
    println!("  variant {label}...");
    let tweak = move |p: &mut amoeba_dir_core::cluster::ClusterParams| {
        if let Some(b) = max_batch {
            p.group.max_batch = b;
        }
        if let Some(b) = apply_batch {
            p.dir.apply_batch = b;
        }
        if routed {
            p.net_topology = ClusterTopology::two_segment_split();
        }
    };
    let mut forwarded = 0u64;

    // Latencies from a single unloaded client.
    let mut tb = testbed_with(variant, 0xBA5E, tweak);
    seed_target(&mut tb);
    let lookup_latency_ms = mean_latency_ms(&mut tb, 50, |ctx, client, root, _i| {
        lookup_once(ctx, client, root, "target");
    });
    let update_latency_ms = mean_latency_ms(&mut tb, 30, |ctx, client, root, i| {
        append_delete_pair(ctx, client, root, format!("lat-{i}"));
    });
    forwarded += tb.cluster.net.stats().packets_forwarded;

    // Fig. 8-style lookup throughput at N_CLIENTS closed-loop clients.
    let mut tb = testbed_with(variant, 0xF18 + N_CLIENTS as u64, tweak);
    seed_target(&mut tb);
    let lookup_ops_per_sec = throughput(
        &mut tb,
        N_CLIENTS,
        Duration::from_secs(1),
        Duration::from_secs(5),
        |ctx, client, root, _c, _k| lookup_once(ctx, client, root, "target"),
    );
    forwarded += tb.cluster.net.stats().packets_forwarded;

    // Update throughput: the sequencer-bound path accept batching helps.
    let mut tb = testbed_with(variant, 0x0BD8 + N_CLIENTS as u64, tweak);
    seed_target(&mut tb);
    let update_ops_per_sec = throughput(
        &mut tb,
        N_CLIENTS,
        Duration::from_secs(1),
        Duration::from_secs(5),
        |ctx, client, root, c, k| append_delete_pair(ctx, client, root, format!("u{c}-{k}")),
    );
    forwarded += tb.cluster.net.stats().packets_forwarded;
    println!(
        "    lookup {lookup_ops_per_sec:.0}/s, updates {update_ops_per_sec:.0}/s at \
         {N_CLIENTS} clients; latency lookup {lookup_latency_ms:.2} ms, \
         update {update_latency_ms:.2} ms"
    );
    (
        VariantSummary {
            variant: label,
            n_clients: N_CLIENTS,
            lookup_ops_per_sec,
            update_ops_per_sec,
            lookup_latency_ms,
            update_latency_ms,
        },
        forwarded,
    )
}

/// Seeds the row the lookup workload resolves.
fn seed_target(tb: &mut amoeba_bench::Testbed) {
    let client = tb.client.clone();
    let root = tb.root;
    let out = tb.sim.spawn("seed", move |ctx| {
        client
            .append_row(ctx, root, "target", root, vec![Rights::ALL, Rights::NONE])
            .is_ok()
    });
    tb.sim.run_for(Duration::from_secs(10));
    assert_eq!(out.take(), Some(true), "seed append failed");
}
