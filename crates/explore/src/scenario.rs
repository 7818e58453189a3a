//! One exploration scenario: a whole simulated deployment, a write
//! workload, a fault schedule, and replicated-state invariants checked
//! after quiescence.
//!
//! ## Timeline
//!
//! A scenario is a fixed logical-time program, driven from the
//! simulation's main thread at exact `run_until` boundaries (so the
//! schedule is part of the deterministic program, not an outside
//! influence):
//!
//! - `0 ‥ 5 s` — the cluster forms; every client machine creates its
//!   own directory, retrying until the service answers.
//! - `5 ‥ 12 s` — the write phase: each client appends
//!   [`ScenarioParams::writes_per_client`] rows to its directory,
//!   re-reading them through its (optionally lease-cached) lookup path.
//!   Fault injections land inside this window.
//! - `14 s` — cleanup: every fault window has ended by now (crashes
//!   rebooted, partitions healed, network parameters restored).
//! - `14 ‥ 30 s` — settle: recovery and retransmission run out.
//! - `30 ‥ 40 s` — a fresh checker client verifies every acknowledged
//!   write is readable.
//!
//! ## Invariants
//!
//! After quiescence the run must satisfy, per shard: every replica is
//! in normal operation, and all replicas agree on `update_seq` (a
//! member stalled by a replication bug — e.g. the historical
//! gap-recovery bound re-introduced by
//! [`ScenarioParams::buggy_retrans_bound`] — fails this). Globally:
//! every acknowledged write is readable afterwards, and a client's own
//! acknowledged write is never missing from its subsequent (cached or
//! uncached) lookups. Any process panic also fails the scenario.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;

use amoeba_dir_core::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dir_core::{CacheParams, Capability, DirClient, Rights, StorageKind};
use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_sim::{Ctx, SimHandle, SimTime, SimTrace, Simulation};

use crate::schedule::{ranged, FaultKind, FaultSchedule};

/// End of the formation window / start of the write phase (ms).
pub const WRITE_START_MS: u64 = 5_000;
/// End of the write phase (ms).
pub const WRITE_END_MS: u64 = 12_000;
/// All fault windows are capped to end here (ms).
pub const CLEANUP_MS: u64 = 14_000;
/// End of the recovery settle window (ms).
pub const SETTLE_MS: u64 = 30_000;
/// End of the post-quiescence check window (ms).
pub const CHECK_END_MS: u64 = 40_000;

/// Everything that parameterizes one scenario besides its fault
/// schedule. Two runs with equal params + schedule + mode are the same
/// run, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Simulation seed.
    pub seed: u64,
    /// Directory-service shards (each a 3-replica group).
    pub shards: usize,
    /// Segments of the router chain the shards are spread along
    /// (`1` ⇒ one flat LAN, no routers).
    pub chain_segments: usize,
    /// Client machines.
    pub clients: usize,
    /// Appends each client performs during the write phase.
    pub writes_per_client: usize,
    /// Give every client the lease-fenced directory cache.
    pub dir_cache: bool,
    /// Re-introduce the historical gap-recovery retransmission-bound
    /// bug ([`amoeba_group` `GroupConfig::buggy_retrans_bound`]) so the
    /// search can demonstrate finding it.
    pub buggy_retrans_bound: bool,
    /// Run the replicas' group log ([`StorageKind::journal`]): commits
    /// are sequential journal appends and the background checkpointer
    /// does the table writeback — so fault windows can land *inside* a
    /// checkpoint drain. Part of the repro-bundle encoding.
    pub journal: bool,
    /// Install the causal-tracing telemetry layer on the run and return
    /// its Chrome-trace export in [`ScenarioReport::chrome_trace`].
    /// Tracing is zero-perturbation (the simulated run is bit-identical
    /// either way), so this is deliberately *not* part of the repro
    /// bundle encoding: a bundle replays the same with or without it.
    pub telemetry: bool,
}

impl ScenarioParams {
    /// A small scenario: one 3-replica shard on a flat LAN, a couple of
    /// clients. Fast enough for CI smoke sweeps.
    pub fn small(seed: u64) -> ScenarioParams {
        ScenarioParams {
            seed,
            shards: 1,
            chain_segments: 1,
            clients: 2,
            writes_per_client: 6,
            dir_cache: true,
            buggy_retrans_bound: false,
            journal: false,
            telemetry: false,
        }
    }

    /// The big deployment: 8 shards × 3 columns spread along a 5-segment
    /// router chain, plus 26 client machines — 50 simulated machines,
    /// traffic to far shards crossing up to 4 store-and-forward routers.
    pub fn big(seed: u64) -> ScenarioParams {
        ScenarioParams {
            seed,
            shards: 8,
            chain_segments: 5,
            clients: 26,
            writes_per_client: 4,
            dir_cache: true,
            buggy_retrans_bound: false,
            journal: false,
            telemetry: false,
        }
    }

    /// Total simulated machines (columns + clients, before the checker).
    pub fn machines(&self) -> usize {
        self.shards * 3 + self.clients
    }
}

/// The repro-bundle form: every field but `telemetry`, which does not
/// change the run. A count outside what a deployment can hold, or a
/// flag byte other than 0 or 1, is refused.
impl Wire for ScenarioParams {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.seed)
            .u64(self.shards as u64)
            .u64(self.chain_segments as u64)
            .u64(self.clients as u64)
            .u64(self.writes_per_client as u64)
            .boolean(self.dir_cache)
            .boolean(self.buggy_retrans_bound)
            .boolean(self.journal);
    }

    fn get(r: &mut WireReader<'_>) -> Result<ScenarioParams, DecodeError> {
        Ok(ScenarioParams {
            seed: r.u64("sc seed")?,
            shards: ranged(r, 1..=64, "sc shards")?,
            chain_segments: ranged(r, 1..=64, "sc chain")?,
            clients: ranged(r, 0..=1_000, "sc clients")?,
            writes_per_client: ranged(r, 0..=10_000, "sc writes")?,
            dir_cache: r.boolean("sc cache")?,
            buggy_retrans_bound: r.boolean("sc buggy")?,
            journal: r.boolean("sc journal")?,
            telemetry: false,
        })
    }
}

/// How to run a scenario.
#[derive(Debug, Clone)]
pub enum RunMode {
    /// No trace: fastest, used while searching and shrinking.
    Fast,
    /// Record the kernel's decision trace; it comes back in
    /// [`ScenarioReport::trace`] (even when the run panics).
    Record,
    /// Re-execute under verify-mode replay of a recorded trace: the
    /// kernel panics at the first decision departing from it.
    Replay(SimTrace),
}

/// The outcome of one scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Post-quiescence invariant violations (empty for a clean run).
    pub invariant_failures: Vec<String>,
    /// A panic that escaped the run (process panic, replay divergence).
    pub panic: Option<String>,
    /// The recorded trace ([`RunMode::Record`] only; present even when
    /// the run panicked).
    pub trace: Option<SimTrace>,
    /// Acknowledged writes the workload achieved (directories plus
    /// rows); a clean run with zero acked writes is vacuous, not a pass.
    pub acked_writes: usize,
    /// Chrome-trace-event JSON of the run's span tree, when
    /// [`ScenarioParams::telemetry`] asked for one (`None` on a panic:
    /// a half-built trace of a crashed run is more misleading than
    /// useful).
    pub chrome_trace: Option<String>,
}

impl ScenarioReport {
    /// Whether the scenario failed (invariant violation or panic).
    pub fn failed(&self) -> bool {
        !self.invariant_failures.is_empty() || self.panic.is_some()
    }

    /// The class of the first failure: its kind, without the client,
    /// shard, replica or object it names. What a tally of many failing
    /// runs counts (`explore tally`). A clean run is `"ok"`.
    pub fn class(&self) -> &'static str {
        const CLASSES: [(&str, &str); 6] = [
            ("unreadable after settle", "acked write unreadable"),
            ("invisible to own lookup", "acked append invisible"),
            ("did not finish its workload", "client did not finish"),
            ("checker did not finish", "checker did not finish"),
            ("not normal after settle", "replica not normal"),
            ("update_seq diverged", "update_seq diverged"),
        ];
        match (&self.panic, self.invariant_failures.first()) {
            (Some(_), _) => "panic",
            (None, None) => "ok",
            (None, Some(first)) => CLASSES
                .iter()
                .find(|(says, _)| first.contains(says))
                .map_or("other", |&(_, class)| class),
        }
    }

    /// A one-line summary of the outcome.
    pub fn summary(&self) -> String {
        if let Some(p) = &self.panic {
            let line = p.lines().next().unwrap_or(p);
            format!("panic: {line}")
        } else if self.invariant_failures.is_empty() {
            format!("ok ({} acked writes)", self.acked_writes)
        } else {
            format!(
                "{} invariant violation(s): {}",
                self.invariant_failures.len(),
                self.invariant_failures[0]
            )
        }
    }
}

/// What one workload client brought back.
struct ClientOut {
    /// `(directory, row name)` pairs the service acknowledged.
    acked: Vec<(Capability, String)>,
    /// Read-your-own-acknowledged-writes violations seen mid-run.
    violations: Vec<String>,
}

/// Runs one scenario to completion and reports invariant violations,
/// any escaped panic, and (in [`RunMode::Record`]) the kernel trace.
pub fn run_scenario(
    params: &ScenarioParams,
    schedule: &FaultSchedule,
    mode: RunMode,
) -> ScenarioReport {
    // The handle is parked outside the unwind boundary so a panicking
    // run (including a replay divergence) still yields its partial
    // trace for diagnosis.
    let handle_slot: Rc<RefCell<Option<SimHandle>>> = Rc::new(RefCell::new(None));
    let slot = handle_slot.clone();
    let p = params.clone();
    let s = schedule.clone();
    let result = catch_unwind(AssertUnwindSafe(move || run_inner(&p, &s, mode, &slot)));
    match result {
        Ok(report) => report,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_owned()
            };
            let trace = handle_slot
                .borrow_mut()
                .as_ref()
                .and_then(|h| h.snapshot_recording());
            ScenarioReport {
                invariant_failures: Vec::new(),
                panic: Some(msg),
                trace,
                acked_writes: 0,
                chrome_trace: None,
            }
        }
    }
}

/// A fault-window edge, expanded from the schedule.
enum Edge {
    CrashStart(usize),
    CrashEnd(usize),
    IsoStart(usize),
    IsoEnd,
    DegradeStart(u16, u16, u16),
    DegradeEnd,
}

fn run_inner(
    params: &ScenarioParams,
    schedule: &FaultSchedule,
    mode: RunMode,
    handle_slot: &RefCell<Option<SimHandle>>,
) -> ScenarioReport {
    let mut sim = match &mode {
        RunMode::Fast => Simulation::new(params.seed),
        RunMode::Record => Simulation::recording(params.seed),
        RunMode::Replay(trace) => Simulation::replaying(trace),
    };
    *handle_slot.borrow_mut() = Some(sim.handle());
    let tele = params
        .telemetry
        .then(|| amoeba_telemetry::Telemetry::install(&sim.handle()));

    let mut cp = if params.chain_segments > 1 {
        ClusterParams::sharded_chain(Variant::Group, params.shards, params.chain_segments)
    } else {
        ClusterParams::sharded(Variant::Group, params.shards)
    };
    cp.seed = params.seed;
    cp.group.buggy_retrans_bound = params.buggy_retrans_bound;
    if params.journal {
        cp.dir.storage = StorageKind::journal();
    }
    if params.dir_cache {
        cp.dir_cache = Some(CacheParams::default());
    }
    let base_net = cp.net.clone();
    let mut cluster = Cluster::start(&sim, cp);
    let columns = cluster.columns.len();

    // Workload clients.
    let mut outs = Vec::with_capacity(params.clients);
    for i in 0..params.clients {
        let (client, _node) = cluster.client(&sim);
        let writes = params.writes_per_client;
        outs.push(sim.spawn(&format!("workload-{i}"), move |ctx| {
            client_proc(ctx, &client, i, writes)
        }));
    }

    // Expand the schedule into window edges, columns taken modulo the
    // deployment, every window capped to end by CLEANUP_MS.
    let mut edges: Vec<(u64, Edge)> = Vec::new();
    for inj in &schedule.injections {
        let at = inj.at_ms.clamp(1_000, CLEANUP_MS - 500);
        let end = at.saturating_add(inj.dur_ms.max(1)).min(CLEANUP_MS);
        match inj.kind {
            FaultKind::Crash { column } => {
                let c = column % columns;
                edges.push((at, Edge::CrashStart(c)));
                edges.push((end, Edge::CrashEnd(c)));
            }
            FaultKind::Isolate { column } => {
                let c = column % columns;
                edges.push((at, Edge::IsoStart(c)));
                edges.push((end, Edge::IsoEnd));
            }
            FaultKind::Degrade {
                loss_pm,
                dup_pm,
                jitter_pm,
            } => {
                edges.push((at, Edge::DegradeStart(loss_pm, dup_pm, jitter_pm)));
                edges.push((end, Edge::DegradeEnd));
            }
        }
    }
    edges.sort_by_key(|(t, _)| *t);

    // Drive the schedule from the main thread at exact time boundaries.
    // Guards keep overlapping windows well-defined (and deterministic):
    // a column crashes at most once at a time, one isolation and one
    // degradation window are active at most.
    let mut crashed = vec![false; columns];
    let mut iso_active = false;
    let mut degrade_active = false;
    for (at_ms, edge) in edges {
        sim.run_until(SimTime::from_millis(at_ms));
        match edge {
            Edge::CrashStart(c) => {
                if !crashed[c] {
                    cluster.crash_server(&sim, c);
                    crashed[c] = true;
                }
            }
            Edge::CrashEnd(c) => {
                if crashed[c] {
                    cluster.restart_server(&sim, c);
                    crashed[c] = false;
                }
            }
            Edge::IsoStart(c) => {
                if !iso_active && !crashed[c] {
                    cluster.isolate_server(c);
                    iso_active = true;
                }
            }
            Edge::IsoEnd => {
                if iso_active {
                    cluster.heal();
                    iso_active = false;
                }
            }
            Edge::DegradeStart(loss_pm, dup_pm, jitter_pm) => {
                if !degrade_active {
                    let mut p = base_net.clone();
                    p.loss_probability = loss_pm as f64 / 1000.0;
                    p.duplicate_probability = dup_pm as f64 / 1000.0;
                    p.jitter = jitter_pm as f64 / 1000.0;
                    cluster.net.set_params(p);
                    degrade_active = true;
                }
            }
            Edge::DegradeEnd => {
                if degrade_active {
                    cluster.net.set_params(base_net.clone());
                    degrade_active = false;
                }
            }
        }
    }

    // Settle: recovery, retransmission and fence waits run out.
    sim.run_until(SimTime::from_millis(SETTLE_MS));

    let mut failures: Vec<String> = Vec::new();
    let mut acked: Vec<(Capability, String)> = Vec::new();
    for (i, out) in outs.into_iter().enumerate() {
        match out.take() {
            Some(mut o) => {
                failures.append(&mut o.violations);
                acked.append(&mut o.acked);
            }
            None => failures.push(format!("client {i} did not finish its workload")),
        }
    }

    if std::env::var_os("AMX_DEBUG").is_some() {
        for shard in 0..cluster.params.effective_shards() {
            let seqs: Vec<u64> = (0..3)
                .map(|i| cluster.shard_server(shard, i).update_seq())
                .collect();
            let recs: Vec<u64> = (0..3)
                .map(|i| cluster.shard_server(shard, i).replica_stats().recoveries)
                .collect();
            eprintln!("[debug] at settle: shard {shard} update_seq {seqs:?} recoveries {recs:?}");
        }
    }

    // Post-quiescence read-back: every acknowledged write is readable.
    let (checker, _node) = cluster.client(&sim);
    let to_check = acked.clone();
    let check_out = sim.spawn("checker", move |ctx| checker_proc(ctx, &checker, &to_check));
    sim.run_until(SimTime::from_millis(CHECK_END_MS));
    match check_out.take() {
        Some(mut v) => failures.append(&mut v),
        None => failures.push("checker did not finish".to_owned()),
    }

    // Replicated-state invariants: per shard, every replica normal and
    // all replicas agreeing on update_seq.
    for shard in 0..cluster.params.effective_shards() {
        let seqs: Vec<u64> = (0..3)
            .map(|i| cluster.shard_server(shard, i).update_seq())
            .collect();
        for i in 0..3 {
            if !cluster.shard_server(shard, i).is_normal() {
                failures.push(format!("shard {shard} replica {i} not normal after settle"));
            }
        }
        if seqs.iter().any(|s| *s != seqs[0]) {
            failures.push(format!(
                "shard {shard} update_seq diverged after settle: {seqs:?}"
            ));
        }
    }

    let trace = sim.take_recording();
    ScenarioReport {
        invariant_failures: failures,
        panic: None,
        trace,
        acked_writes: acked.len(),
        chrome_trace: tele.map(|t| t.export_chrome_json()),
    }
}

/// One workload client: create an own directory during formation, then
/// append `writes` rows across the write phase, re-reading after each
/// acknowledged append (a client must never lose sight of its own
/// acknowledged write — cached or not).
fn client_proc(ctx: &Ctx, client: &DirClient, index: usize, writes: usize) -> ClientOut {
    let mut out = ClientOut {
        acked: Vec::new(),
        violations: Vec::new(),
    };
    // Form: retry until the service answers (it may still be electing).
    let dir = loop {
        if ctx.now().as_nanos() / 1_000_000 > WRITE_END_MS {
            return out; // never formed inside the window: vacuous
        }
        match client.create_dir(ctx, &["owner"]) {
            Ok(c) => break c,
            Err(_) => ctx.sleep(Duration::from_millis(200 + 13 * index as u64)),
        }
    };
    out.acked.push((dir, String::new())); // the directory itself
                                          // Spread this client's writes across the write phase, offset by its
                                          // index so clients interleave instead of bursting in lockstep.
    let start = WRITE_START_MS + 40 * index as u64;
    let span = WRITE_END_MS.saturating_sub(start + 200).max(1);
    let step = span / writes.max(1) as u64;
    for k in 0..writes {
        let due = SimTime::from_millis(start + step * k as u64);
        let now = ctx.now();
        if now < due {
            ctx.sleep(due.saturating_since(now));
        }
        if ctx.now().as_nanos() / 1_000_000 > CLEANUP_MS + 2_000 {
            break; // the service was unreachable for most of the phase
        }
        let name = format!("w{k}");
        if client
            .append_row(ctx, dir, &name, dir, vec![Rights::ALL])
            .is_err()
        {
            continue; // unacknowledged: nothing to hold the service to
        }
        out.acked.push((dir, name.clone()));
        // Read-your-own-acknowledged-writes, through whatever lookup
        // path this client has (leased cache included).
        match client.lookup(ctx, dir, &name) {
            Ok(Some(_)) | Err(_) => {}
            Ok(None) => out.violations.push(format!(
                "client {index}: acked append of {name:?} invisible to own lookup"
            )),
        }
    }
    out
}

/// The post-quiescence checker: by now the service is healed and
/// settled, so every acknowledged write must be readable (a handful of
/// retries tolerates a still-warming cache path, nothing else).
fn checker_proc(ctx: &Ctx, client: &DirClient, acked: &[(Capability, String)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (dir, name) in acked {
        let mut ok = false;
        let mut last = String::new();
        for _ in 0..10 {
            if name.is_empty() {
                // The directory itself: it must list.
                match client.list(ctx, *dir) {
                    Ok(_) => {
                        ok = true;
                        break;
                    }
                    Err(e) => last = format!("{e:?}"),
                }
            } else {
                match client.lookup(ctx, *dir, name) {
                    Ok(Some(_)) => {
                        ok = true;
                        break;
                    }
                    Ok(None) => last = "lookup answered None".to_owned(),
                    Err(e) => last = format!("{e:?}"),
                }
            }
            ctx.sleep(Duration::from_millis(300));
        }
        if !ok {
            failures.push(format!(
                "acked write (obj {} {:?}) unreadable after settle: {last}",
                dir.object, name
            ));
        }
    }
    failures
}
