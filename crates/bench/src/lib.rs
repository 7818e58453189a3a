//! Shared experiment harness for the figure/table regeneration binaries.
//!
//! Every experiment builds a deployment with
//! [`amoeba_dir_core::cluster::Cluster`], runs a workload under
//! virtual time, and reports latencies/throughputs measured on the
//! simulated clock — the same quantities the paper's Figs. 7–9 report.

pub mod group_pipeline;
pub mod microbench;
pub mod summary;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amoeba_dir_core::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dir_core::{CacheParams, CacheStats, Capability, DirClient, Rights};
use amoeba_sim::{Ctx, SimTime, Simulation};

/// A ready-to-measure deployment: cluster + a root directory.
pub struct Testbed {
    /// The simulation (run it to advance the experiment).
    pub sim: Simulation,
    /// The deployment.
    pub cluster: Cluster,
    /// A formed root directory every client can use.
    pub root: Capability,
    /// A client on its own machine, already warmed up.
    pub client: DirClient,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Testbed({})", self.cluster.params.variant.label())
    }
}

/// Builds a deployment of `variant`, waits for it to form, creates a root
/// directory.
///
/// # Panics
///
/// Panics if the service does not form within a minute of virtual time.
pub fn testbed(variant: Variant, seed: u64) -> Testbed {
    testbed_with(variant, seed, |_| {})
}

/// [`testbed`] with a hook to adjust the deployment parameters.
///
/// # Panics
///
/// Panics if the service does not form within a minute of virtual time.
pub fn testbed_with(
    variant: Variant,
    seed: u64,
    tweak: impl FnOnce(&mut ClusterParams),
) -> Testbed {
    testbed_inner(variant, seed, tweak, false).0
}

/// [`testbed_with`] under full causal tracing: installs a
/// [`Telemetry`](amoeba_telemetry::Telemetry) collector *before* the
/// cluster starts (so every machine track is named) and returns the
/// handle alongside the testbed. Every client op from here on records
/// a span tree and per-family latency histograms.
pub fn testbed_traced(
    variant: Variant,
    seed: u64,
    tweak: impl FnOnce(&mut ClusterParams),
) -> (Testbed, amoeba_telemetry::Telemetry) {
    let (tb, tele) = testbed_inner(variant, seed, tweak, true);
    (tb, tele.expect("traced testbed installs telemetry"))
}

fn testbed_inner(
    variant: Variant,
    seed: u64,
    tweak: impl FnOnce(&mut ClusterParams),
    traced: bool,
) -> (Testbed, Option<amoeba_telemetry::Telemetry>) {
    let mut sim = Simulation::new(seed);
    let tele = traced.then(|| amoeba_telemetry::Telemetry::install(&sim.handle()));
    let mut params = ClusterParams::paper(variant);
    params.seed = seed;
    tweak(&mut params);
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let out = sim.spawn("testbed-setup", move |ctx| loop {
        match c2.create_dir(ctx, &["owner", "other"]) {
            Ok(cap) => return cap,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    });
    sim.run_for(Duration::from_secs(60));
    let root = out.take().expect("service failed to form within 60 s");
    (
        Testbed {
            sim,
            cluster,
            root,
            client,
        },
        tele,
    )
}

/// Measures mean latency (ms) of `op` over `iters` runs from one client.
pub fn mean_latency_ms<F>(tb: &mut Testbed, iters: usize, op: F) -> f64
where
    F: Fn(&Ctx, &DirClient, Capability, usize) + Send + Sync + 'static,
{
    let client = tb.client.clone();
    let root = tb.root;
    let out = tb.sim.spawn("latency-probe", move |ctx| {
        // One warmup iteration to fill caches.
        op(ctx, &client, root, usize::MAX);
        let mut total = Duration::ZERO;
        for i in 0..iters {
            let t0 = ctx.now();
            op(ctx, &client, root, i);
            total += ctx.now() - t0;
        }
        total.as_secs_f64() * 1e3 / iters as f64
    });
    run_until_ready(tb, &out, Duration::from_secs(600));
    out.take().expect("latency probe finished")
}

/// Advances the simulation in slices until the probe's value is ready,
/// without burning virtual time on idle background timers afterwards.
pub fn run_until_ready<R>(tb: &mut Testbed, out: &amoeba_sim::ProcOutput<R>, limit: Duration) {
    let deadline = tb.sim.now() + limit;
    while !out.is_ready() && tb.sim.now() < deadline {
        tb.sim.run_for(Duration::from_millis(500));
    }
}

/// Runs `n_clients` closed-loop clients for `window` of virtual time
/// (after `warmup`) and returns completed ops/second.
///
/// Each client runs on its own machine (its own kernel port cache), like
/// the paper's workstations.
pub fn throughput<F>(
    tb: &mut Testbed,
    n_clients: usize,
    warmup: Duration,
    window: Duration,
    op: F,
) -> f64
where
    F: Fn(&Ctx, &DirClient, Capability, usize, usize) -> bool + Send + Sync + Clone + 'static,
{
    let counter = Arc::new(AtomicU64::new(0));
    let t_start = tb.sim.now() + warmup;
    let t_end = t_start + window;
    for c in 0..n_clients {
        let (client, _) = tb.cluster.client(&tb.sim);
        let root = tb.root;
        let counter = Arc::clone(&counter);
        let op = op.clone();
        tb.sim.spawn(&format!("load-client-{c}"), move |ctx| {
            let mut k = 0usize;
            loop {
                let done_at_start = ctx.now();
                if done_at_start >= t_end {
                    return;
                }
                let ok = op(ctx, &client, root, c, k);
                k += 1;
                let t = ctx.now();
                if ok && t >= t_start && t < t_end {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    tb.sim.run_until(t_end + Duration::from_secs(2));
    counter.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
}

/// Result of one sharded update-burst run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBurstResult {
    /// Completed appends per simulated second over the window.
    pub ops_per_sec: f64,
    /// Router store-and-forwards during the window (0 on a flat LAN).
    pub packets_forwarded: u64,
    /// Multicast forwards the routers pruned during the window.
    pub mcast_pruned: u64,
    /// Store-and-forwards per completed append.
    pub forwarded_per_op: f64,
    /// Disk head seeks across every replica's platter during the run
    /// (0 unless the head-aware disk model is on).
    pub disk_seeks: u64,
    /// Seeks per completed append — the group-log A/B's headline: a
    /// journaled commit is one sequential append, so this drops from
    /// several region hops per flush toward ~1.
    pub seeks_per_op: f64,
}

/// The sharded update-burst harness: a Group(3) deployment split into
/// `shards` replica groups (flat LAN, or each shard on its own segment
/// of a star internetwork when `routed`), `n_writers` closed-loop
/// writers each appending unique rows to **its own directory** —
/// directories land round-robin across the shards, so every shard's
/// sequencer and disks carry `1/shards` of the load. `pruning` toggles
/// the routers' multicast pruning (ignored on the flat LAN, which has
/// no routers).
pub fn sharded_update_burst(
    shards: usize,
    routed: bool,
    pruning: bool,
    n_writers: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
) -> ShardBurstResult {
    sharded_update_burst_with(
        shards,
        routed,
        pruning,
        n_writers,
        warmup,
        window,
        seed,
        |_| {},
    )
    .0
}

/// [`sharded_update_burst`] with a deployment-parameter hook (the
/// group-log A/B sets `dir.journal` and `disk.head_aware` through it)
/// plus per-op-family latency percentiles from a
/// metrics-only telemetry collector installed *after* setup, so the
/// histograms cover exactly the measured burst. Returns the burst
/// result and [`latency_rows`].
#[allow(clippy::too_many_arguments)]
pub fn sharded_update_burst_with(
    shards: usize,
    routed: bool,
    pruning: bool,
    n_writers: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
    tweak: impl FnOnce(&mut ClusterParams),
) -> (ShardBurstResult, Vec<(String, f64, f64, f64)>) {
    use amoeba_dir_core::cluster::ClusterTopology;
    use amoeba_dir_core::{DirClientError, DirError};

    let mut tb = testbed_with(Variant::Group, seed, |p| {
        p.shards = shards;
        if routed {
            p.net_topology = ClusterTopology::shard_star(shards);
        }
        tweak(p);
    });
    tb.cluster.net.set_multicast_pruning(pruning);

    // One directory per writer, placed round-robin across the shards.
    let client = tb.client.clone();
    let made = tb.sim.spawn("burst-dirs", move |ctx| {
        let mut dirs = Vec::new();
        for _ in 0..n_writers {
            loop {
                match client.create_dir(ctx, &["owner", "other"]) {
                    Ok(cap) => {
                        dirs.push(cap);
                        break;
                    }
                    Err(_) => ctx.sleep(Duration::from_millis(100)),
                }
            }
        }
        dirs
    });
    tb.sim.run_for(Duration::from_secs(30));
    let dirs = Arc::new(made.take().expect("burst directories created"));

    // Percentiles for the burst only: metrics-only, installed after the
    // directories exist, so setup ops stay out of the histograms.
    let tele = amoeba_telemetry::Telemetry::install_metrics_only(&tb.sim.handle());
    let before = tb.cluster.net.stats();
    let seeks_before: u64 = tb
        .cluster
        .columns
        .iter()
        .map(|c| c.vdisk.stats().seeks)
        .sum();
    let ops_per_sec = throughput(
        &mut tb,
        n_writers,
        warmup,
        window,
        move |ctx, client, _root, c, k| {
            let dir = dirs[c % dirs.len()];
            let name = format!("b{c}-{k}");
            for _ in 0..6 {
                match client.append_row(ctx, dir, &name, dir, vec![Rights::ALL, Rights::NONE]) {
                    Ok(()) => return true,
                    Err(DirClientError::Service(DirError::DuplicateName)) => return true,
                    Err(_) => ctx.sleep(Duration::from_millis(10)),
                }
            }
            false
        },
    );
    let d = tb.cluster.net.stats().since(&before);
    let total_ops = ops_per_sec * window.as_secs_f64();
    let disk_seeks = tb
        .cluster
        .columns
        .iter()
        .map(|c| c.vdisk.stats().seeks)
        .sum::<u64>()
        .saturating_sub(seeks_before);
    (
        ShardBurstResult {
            ops_per_sec,
            packets_forwarded: d.packets_forwarded,
            mcast_pruned: d.mcast_pruned,
            forwarded_per_op: if total_ops > 0.0 {
                d.packets_forwarded as f64 / total_ops
            } else {
                f64::NAN
            },
            disk_seeks,
            seeks_per_op: if total_ops > 0.0 {
                disk_seeks as f64 / total_ops
            } else {
                f64::NAN
            },
        },
        latency_rows(&tele.metrics()),
    )
}

/// Result of one skewed-placement migration run.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationBurstResult {
    /// Completed appends per simulated second over the window.
    pub ops_per_sec: f64,
    /// Forwarding stubs on the hot shard at the end — i.e. directories
    /// the rebalancer migrated away (0 with the rebalancer off).
    pub migrated: usize,
}

/// The skewed hot-shard harness behind the `+migration` A/B: a sharded
/// Group(3) deployment where **every** writer's directory is
/// deliberately placed on shard 0 — the single-sequencer hotspot a
/// static placement cannot shed. With `rebalance` the deployment runs
/// the lease-fenced [`RebalancerParams`] rebalancer, which migrates the
/// hot directories across the other shards *during the warmup* (the
/// writers keep their original capabilities and follow the forwarding
/// stubs), and the measured window shows throughput recovering without
/// a redeploy.
///
/// [`RebalancerParams`]: amoeba_dir_core::cluster::RebalancerParams
pub fn migration_burst(
    shards: usize,
    rebalance: bool,
    n_writers: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
) -> MigrationBurstResult {
    use amoeba_dir_core::cluster::{RebalancerParams, ServiceSpec};
    use amoeba_dir_core::{DirClientError, DirError, ShardMap};

    let mut tb = testbed_with(Variant::Group, seed, |p| {
        p.shards = shards;
        if rebalance {
            p.services
                .push(ServiceSpec::of::<amoeba_dir_core::LeaseService>());
            // Trigger thresholds chosen to fire hard on the initial
            // hotspot (hot/cold ratio is effectively infinite while a
            // shard sits idle) and go quiet once the placement is
            // balanced (per-shard deltas converge, the ratio drops
            // under 2), so the measured window sees a steady state,
            // not migration churn. The 2 s interval keeps per-interval
            // deltas large enough to be meaningful at disk-bound
            // update rates.
            p.rebalancer = Some(RebalancerParams {
                interval: Duration::from_secs(2),
                skew_ratio: 1.5,
                min_hot_ops: 12,
                moves_per_round: 4,
                lease_ttl: 64,
            });
        }
    });

    // The skew: every writer's directory is created on shard 0 (creates
    // landing elsewhere are simply discarded — they stay empty).
    let client = tb.client.clone();
    let map = ShardMap::new(shards);
    let made = tb.sim.spawn("skewed-dirs", move |ctx| {
        let mut dirs = Vec::new();
        while dirs.len() < n_writers {
            match client.create_dir(ctx, &["owner", "other"]) {
                Ok(cap) if map.shard_of_cap(&cap) == Some(0) => dirs.push(cap),
                Ok(_) => {}
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }
        dirs
    });
    tb.sim.run_for(Duration::from_secs(60));
    let dirs = Arc::new(made.take().expect("skewed directories created"));

    let ops_per_sec = throughput(
        &mut tb,
        n_writers,
        warmup,
        window,
        move |ctx, client, _root, c, k| {
            let dir = dirs[c % dirs.len()];
            let name = format!("m{c}-{k}");
            for _ in 0..6 {
                match client.append_row(ctx, dir, &name, dir, vec![Rights::ALL, Rights::NONE]) {
                    Ok(()) => return true,
                    Err(DirClientError::Service(DirError::DuplicateName)) => return true,
                    Err(_) => ctx.sleep(Duration::from_millis(10)),
                }
            }
            false
        },
    );
    MigrationBurstResult {
        ops_per_sec,
        migrated: tb.cluster.shard_server(0, 0).stub_count(),
    }
}

/// Result of one zipfian read-mix run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadMixResult {
    /// Completed lookups per simulated second over the window.
    pub lookups_per_sec: f64,
    /// Completed append+delete pairs per simulated second.
    pub updates_per_sec: f64,
    /// Mean append+delete pair latency in simulated ms — with the
    /// cache on this *includes* the lease-revocation fan-out a write
    /// pays before it is acknowledged.
    pub update_latency_ms: f64,
    /// Cache hits over total lookups issued (NaN with the cache off).
    pub hit_rate: f64,
    /// Aggregate reader-side cache counters (zeros with the cache off).
    pub cache: CacheStats,
    /// Per-op-family latency percentiles over the whole run, from the
    /// telemetry layer's histograms: `(family, p50_ms, p95_ms, p99_ms)`
    /// rows, one per client-op family that saw traffic.
    pub latency: Vec<(String, f64, f64, f64)>,
}

/// Flattens a metrics snapshot into `(family, p50_ms, p95_ms, p99_ms)`
/// rows for every histogram family with at least one observation.
pub fn latency_rows(m: &amoeba_telemetry::MetricsSnapshot) -> Vec<(String, f64, f64, f64)> {
    m.hists
        .iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(family, h)| {
            (
                family.clone(),
                h.percentile(50.0) as f64 / 1e3,
                h.percentile(95.0) as f64 / 1e3,
                h.percentile(99.0) as f64 / 1e3,
            )
        })
        .collect()
}

/// The production read-mix harness behind the `+readmix` A/B: a sharded
/// Group(3) deployment, `n_dirs` directories placed round-robin across
/// the shards, `n_readers` closed-loop clients resolving a seeded row
/// in Zipf-distributed directories while `n_writers` paced writers run
/// append+delete pairs over a **uniform** directory distribution — the
/// classic production shape (reads concentrate, updates spread), so
/// every directory sees periodic invalidations without one disk-bound
/// hot shard queueing the whole read path. (The all-holders-on-one-dir
/// worst case is measured separately by [`invalidation_storm`].) With
/// `cached` every client machine runs the lease-fenced [`DirCache`]
/// (plus its invalidation listener); with it off the deployment is
/// parameter-identical and the read path is the unmodified per-lookup
/// RPC.
///
/// A cached hit costs **zero** simulated packets, so each reader op
/// pays a small fixed think time (the application CPU between
/// directory calls) — without it a closed loop over a warm cache would
/// spin without advancing the simulated clock.
///
/// The bench leases run longer than the 400 ms production default:
/// a renewal is a group-ordered `GrantRead`, so with `n_dirs` cached
/// directories each client pays `n_dirs / ttl` ordered ops per second
/// of pure renewal traffic — the TTL is the knob that trades write-ack
/// worst case (a crashed holder stalls a write for up to one TTL)
/// against renewal load. `max_lease` on the service is raised to match
/// in **both** arms, so the A/B differs only in the cache itself.
///
/// [`DirCache`]: amoeba_dir_core::DirCache
#[allow(clippy::too_many_arguments)]
pub fn read_mix_burst(
    shards: usize,
    cached: bool,
    n_readers: usize,
    n_writers: usize,
    n_dirs: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
) -> ReadMixResult {
    let ttl = Duration::from_secs(3);
    let mut tb = testbed_with(Variant::Group, seed, |p| {
        p.shards = shards;
        p.dir.max_lease = ttl;
        if cached {
            p.dir_cache = Some(CacheParams {
                ttl,
                ..CacheParams::default()
            });
        }
    });

    // The working set: n_dirs directories round-robin across the
    // shards, each seeded with the row the readers resolve.
    let client = tb.client.clone();
    let made = tb.sim.spawn("readmix-dirs", move |ctx| {
        let mut dirs = Vec::new();
        for _ in 0..n_dirs {
            loop {
                match client.create_dir(ctx, &["owner", "other"]) {
                    Ok(cap) => {
                        if client
                            .append_row(ctx, cap, "payload", cap, vec![Rights::ALL, Rights::NONE])
                            .is_ok()
                        {
                            dirs.push(cap);
                            break;
                        }
                    }
                    Err(_) => ctx.sleep(Duration::from_millis(100)),
                }
            }
        }
        dirs
    });
    tb.sim.run_for(Duration::from_secs(120));
    let dirs = Arc::new(made.take().expect("read-mix directories created"));
    let zipf = Arc::new(zipf_cdf(n_dirs, 1.1));

    // Percentiles for the measured mix only: install the metrics-only
    // collector after setup, so histograms exclude directory seeding.
    let tele = amoeba_telemetry::Telemetry::install_metrics_only(&tb.sim.handle());

    let t_start = tb.sim.now() + warmup;
    let t_end = t_start + window;
    let lookups = Arc::new(AtomicU64::new(0));
    let pairs = Arc::new(AtomicU64::new(0));
    let pair_us = Arc::new(AtomicU64::new(0));
    let think = Duration::from_micros(100);

    let mut readers = Vec::new();
    for c in 0..n_readers {
        let (rd, _) = tb.cluster.client(&tb.sim);
        readers.push(rd.clone());
        let dirs = Arc::clone(&dirs);
        let zipf = Arc::clone(&zipf);
        let lookups = Arc::clone(&lookups);
        tb.sim.spawn(&format!("readmix-reader-{c}"), move |ctx| {
            let mut rng = seed ^ (0xA5A5_0000 + c as u64);
            loop {
                if ctx.now() >= t_end {
                    return;
                }
                let dir = dirs[zipf_pick(&zipf, &mut rng)];
                let ok = matches!(rd.lookup(ctx, dir, "payload"), Ok(Some(_)));
                let t = ctx.now();
                if ok && t >= t_start && t < t_end {
                    lookups.fetch_add(1, Ordering::Relaxed);
                }
                ctx.sleep(think);
            }
        });
    }
    for c in 0..n_writers {
        let (wr, _) = tb.cluster.client(&tb.sim);
        let dirs = Arc::clone(&dirs);
        let pairs = Arc::clone(&pairs);
        let pair_us = Arc::clone(&pair_us);
        tb.sim.spawn(&format!("readmix-writer-{c}"), move |ctx| {
            let mut rng = seed ^ (0x3333_0000 + c as u64);
            let mut k = 0usize;
            loop {
                if ctx.now() >= t_end {
                    return;
                }
                // Uniform target + a pause between pairs: a paced
                // update stream, not a disk-saturating burst.
                let dir = dirs[uniform_pick(&mut rng, dirs.len())];
                let t0 = ctx.now();
                let ok = append_delete_pair(ctx, &wr, dir, format!("w{c}-{k}"));
                k += 1;
                let t = ctx.now();
                if ok && t0 >= t_start && t < t_end {
                    pairs.fetch_add(1, Ordering::Relaxed);
                    pair_us.fetch_add((t - t0).as_micros() as u64, Ordering::Relaxed);
                }
                ctx.sleep(Duration::from_millis(1000));
            }
        });
    }
    tb.sim.run_until(t_end + Duration::from_secs(2));

    let mut cache = CacheStats::default();
    for rd in &readers {
        if let Some(s) = rd.cache_stats() {
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.invalidations += s.invalidations;
            cache.renewals += s.renewals;
            cache.stale_rejects += s.stale_rejects;
            cache.renewals_saved += s.renewals_saved;
        }
    }
    let issued = cache.hits + cache.misses + cache.renewals + cache.stale_rejects;
    let n_pairs = pairs.load(Ordering::Relaxed);
    ReadMixResult {
        lookups_per_sec: lookups.load(Ordering::Relaxed) as f64 / window.as_secs_f64(),
        updates_per_sec: n_pairs as f64 / window.as_secs_f64(),
        update_latency_ms: if n_pairs > 0 {
            pair_us.load(Ordering::Relaxed) as f64 / 1e3 / n_pairs as f64
        } else {
            f64::NAN
        },
        hit_rate: if issued > 0 {
            cache.hits as f64 / issued as f64
        } else {
            f64::NAN
        },
        cache,
        latency: latency_rows(&tele.metrics()),
    }
}

/// One arm of the telemetry-overhead A/B.
///
/// The simulated-clock fields (`ops_per_sec`, `end`) must be
/// bit-identical across the traced and untraced arms — tracing rides
/// out-of-band metadata, never touches the wire or the scheduler — so
/// the only cost of turning it on is host-side, which the pipeline
/// bench times around this call.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedBurstResult {
    /// Completed appends per simulated second over the window.
    pub ops_per_sec: f64,
    /// Simulated time when the run stopped.
    pub end: SimTime,
    /// Spans recorded (0 in the untraced arm).
    pub spans: usize,
    /// Packet flow edges recorded (0 in the untraced arm).
    pub flows: usize,
}

/// The telemetry-overhead workload: `n_writers` closed-loop writers
/// appending unique rows to one group-replicated directory, with full
/// span tracing either installed (`traced`) or absent.
pub fn traced_update_burst(
    traced: bool,
    n_writers: usize,
    warmup: Duration,
    window: Duration,
    seed: u64,
) -> TracedBurstResult {
    use amoeba_dir_core::{DirClientError, DirError};
    let (mut tb, tele) = testbed_inner(Variant::Group, seed, |_| {}, traced);
    let ops_per_sec = throughput(
        &mut tb,
        n_writers,
        warmup,
        window,
        |ctx, client, root, c, k| {
            let name = format!("t{c}-{k}");
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
    let tele = tele.unwrap_or_else(amoeba_telemetry::Telemetry::disabled);
    TracedBurstResult {
        ops_per_sec,
        end: tb.sim.now(),
        spans: tele.spans().len(),
        flows: tele.flows().len(),
    }
}

/// Result of the invalidation-storm probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormResult {
    /// Latency (ms) of the single write that had to revoke every
    /// outstanding read lease before it could be acknowledged.
    pub write_latency_ms: f64,
    /// Cached entries the write dropped across the reader fleet.
    pub invalidations: u64,
}

/// The invalidation-storm probe: `n_readers` cached clients all hold a
/// live read lease on **one** directory (they re-resolve it on a short
/// cadence, so lazy renewal keeps the leases fresh), then a single
/// write lands on that directory. The measured latency is the full
/// revoke-before-ack cost — one invalidation callback per holder —
/// and `invalidations` confirms every reader's entry was dropped.
pub fn invalidation_storm(shards: usize, n_readers: usize, seed: u64) -> StormResult {
    let mut tb = testbed_with(Variant::Group, seed, |p| {
        p.shards = shards;
        p.dir_cache = Some(CacheParams::default());
    });
    let client = tb.client.clone();
    let root = tb.root;
    let seeded = tb.sim.spawn("storm-seed", move |ctx| {
        client
            .append_row(ctx, root, "payload", root, vec![Rights::ALL, Rights::NONE])
            .is_ok()
    });
    tb.sim.run_for(Duration::from_secs(10));
    assert_eq!(seeded.take(), Some(true), "storm seed append failed");

    let stop = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for c in 0..n_readers {
        let (rd, _) = tb.cluster.client(&tb.sim);
        readers.push(rd.clone());
        let stop = Arc::clone(&stop);
        tb.sim.spawn(&format!("storm-reader-{c}"), move |ctx| loop {
            if stop.load(Ordering::Relaxed) != 0 {
                return;
            }
            let _ = rd.lookup(ctx, root, "payload");
            ctx.sleep(Duration::from_millis(50));
        });
    }
    tb.sim.run_for(Duration::from_secs(1)); // every reader's cache is hot
    let before: u64 = readers
        .iter()
        .filter_map(|r| r.cache_stats())
        .map(|s| s.invalidations)
        .sum();
    let (wr, _) = tb.cluster.client(&tb.sim);
    let probe = tb.sim.spawn("storm-writer", move |ctx| {
        let t0 = ctx.now();
        let ok = wr
            .append_row(ctx, root, "storm", root, vec![Rights::ALL, Rights::NONE])
            .is_ok();
        (ok, (ctx.now() - t0).as_secs_f64() * 1e3)
    });
    tb.sim.run_for(Duration::from_secs(30));
    stop.store(1, Ordering::Relaxed);
    tb.sim.run_for(Duration::from_millis(200));
    let (ok, write_latency_ms) = probe.take().expect("storm write finished");
    assert!(ok, "storm write must succeed");
    let after: u64 = readers
        .iter()
        .filter_map(|r| r.cache_stats())
        .map(|s| s.invalidations)
        .sum();
    StormResult {
        write_latency_ms,
        invalidations: after.saturating_sub(before),
    }
}

/// Cumulative Zipf(`s`) distribution over ranks `0..n` (last entry 1).
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for w in &mut cdf {
        acc += *w / total;
        *w = acc;
    }
    cdf
}

/// Draws a rank from a [`zipf_cdf`] table with an LCG (deterministic
/// per seed, so runs reproduce exactly).
fn zipf_pick(cdf: &[f64], state: &mut u64) -> usize {
    let u = (lcg_next(state) >> 11) as f64 / (1u64 << 53) as f64;
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Draws uniformly from `0..n` with the same LCG.
fn uniform_pick(state: &mut u64, n: usize) -> usize {
    (lcg_next(state) >> 11) as usize % n
}

fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Formats a paper-vs-measured table row.
pub fn row(label: &str, paper: &str, measured: f64, unit: &str) -> String {
    format!("{label:<28} {paper:>12} {measured:>12.1} {unit}")
}

/// The append-delete pair workload (Fig. 7 row 1, Fig. 9). Adapts the
/// rights-mask count to the directory's columns and retries transient
/// busy failures a few times, as a real client would.
pub fn append_delete_pair(ctx: &Ctx, client: &DirClient, dir: Capability, tag: String) -> bool {
    use amoeba_dir_core::{DirClientError, DirError};
    let mut appended = false;
    let mut masks = vec![Rights::ALL];
    for _ in 0..6 {
        match client.append_row(ctx, dir, &tag, dir, masks.clone()) {
            Ok(()) => {
                appended = true;
                break;
            }
            Err(DirClientError::Service(DirError::ColumnMismatch)) => {
                masks.push(Rights::NONE);
            }
            Err(DirClientError::Service(DirError::DuplicateName)) => {
                appended = true; // an earlier retry actually landed
                break;
            }
            Err(_) => ctx.sleep(Duration::from_millis(10)),
        }
    }
    if !appended {
        return false;
    }
    for _ in 0..6 {
        match client.delete_row(ctx, dir, &tag) {
            Ok(()) => return true,
            Err(DirClientError::Service(DirError::NoSuchName)) => return true,
            Err(_) => ctx.sleep(Duration::from_millis(10)),
        }
    }
    false
}

/// One lookup of an existing name (Fig. 7 row 3, Fig. 8).
pub fn lookup_once(ctx: &Ctx, client: &DirClient, root: Capability, name: &str) -> bool {
    matches!(client.lookup(ctx, root, name), Ok(Some(_)))
}

/// The current virtual time of a testbed.
pub fn now(tb: &Testbed) -> SimTime {
    tb.sim.now()
}
