//! Shared experiment harness for the figure/table regeneration binaries.
//!
//! Every experiment builds a deployment with
//! [`amoeba_dir_core::cluster::Cluster`], runs a workload under
//! virtual time, and reports latencies/throughputs measured on the
//! simulated clock — the same quantities the paper's Figs. 7–9 report.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_dir_core::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dir_core::{Capability, DirClient, Rights};
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
    F: Fn(&Ctx, &DirClient, Capability, usize) + 'static,
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
    F: Fn(&Ctx, &DirClient, Capability, usize, usize) -> bool + Clone + 'static,
{
    let counter = Rc::new(Cell::new(0));
    let t_start = tb.sim.now() + warmup;
    let t_end = t_start + window;
    for c in 0..n_clients {
        let (client, _) = tb.cluster.client(&tb.sim);
        let root = tb.root;
        let counter = Rc::clone(&counter);
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
                    counter.set(counter.get() + 1);
                }
            }
        });
    }
    tb.sim.run_until(t_end + Duration::from_secs(2));
    counter.get() as f64 / window.as_secs_f64()
}

/// One arm of the traced-vs-untraced comparison.
///
/// The simulated-clock fields (`ops_per_sec`, `end`) must be
/// bit-identical across the traced and untraced arms — tracing rides
/// out-of-band metadata, never touches the wire or the scheduler — so
/// the only cost of turning it on is host-side.
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
