//! The four workloads: what is deployed, what the clients do, and the
//! output checks every run makes.
//!
//! Every deployment comes from a stock constructor and sets no
//! `DirParams` / `DiskParams` / `GroupConfig` field, so the numbers are
//! what a caller of the library gets by default.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use amoeba_dir_core::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dir_core::{CacheParams, Capability, DirClient, DirClientError, DirError, Rights};
use amoeba_sim::{Ctx, ProcOutput, RunStats, SimTime, Simulation};
use amoeba_telemetry::Telemetry;

use crate::stats::{Rng, Sample, Zipf};

/// Rows every directory is seeded with; readers resolve these.
pub const SEED_ROWS: usize = 16;
/// Simulated time the clients run before the measured window opens.
const WARMUP: Duration = Duration::from_secs(5);
/// Pause between tries of one operation.
const RETRY_PAUSE: Duration = Duration::from_millis(10);
/// One lookup in this many targets the name a writer last had
/// acknowledged in that directory instead of a seeded row.
const PROBE_ONE_IN: usize = 16;
/// Rows of its own a writer keeps before it deletes the oldest. The RPC
/// layer under `DirClient` resends a request whose reply is late, to
/// another replica if need be, and the service does not de-duplicate, so
/// a straggling first transmission of an append applied after the
/// row's delete would resurrect the row. Deleting a name only 16 of the
/// writer's ops (8 s at `failover`'s pace) after its append puts it past
/// any straggler, which then merely answers `DuplicateName`.
const KEEP_LIVE: usize = 16;
/// `read_cached` is the workload of the client-side cache: a run of it
/// in which fewer than this share of the lookups are cache hits no
/// longer exercises the cache, and fails.
pub const MIN_HIT_RATE: f64 = 0.5;
/// One crash cycle of `failover`: crash after ~10 s, reboot at 20 s,
/// next cycle at 30 s.
const CYCLE: Duration = Duration::from_secs(30);
/// How long after a crash the longest gap between acks is looked for.
pub const OUTAGE_HORIZON: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMix,
    WriteBurst,
    ReadCached,
    Failover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMix,
        Workload::WriteBurst,
        Workload::ReadCached,
        Workload::Failover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::WriteBurst => "write_burst",
            Workload::ReadCached => "read_cached",
            Workload::Failover => "failover",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn params(self) -> ClusterParams {
        match self {
            Workload::PaperMix | Workload::Failover => ClusterParams::paper(Variant::Group),
            Workload::WriteBurst => ClusterParams::sharded_routed(Variant::Group, 4),
            Workload::ReadCached => ClusterParams {
                dir_cache: Some(CacheParams::default()),
                ..ClusterParams::sharded(Variant::Group, 4)
            },
        }
    }

    fn dirs(self) -> usize {
        match self {
            Workload::PaperMix | Workload::Failover => 1,
            Workload::WriteBurst => 16,
            Workload::ReadCached => 32,
        }
    }

    /// Simulated time one [`Deployment::step`] covers; the measured
    /// window is a whole number of these.
    pub fn quantum(self) -> Duration {
        match self {
            Workload::Failover => CYCLE,
            _ => Duration::from_millis(250),
        }
    }

    /// Steps in the window `--seconds` asks for. The window is a fixed
    /// simulated one, so that every simulated number and sample count
    /// repeats exactly for a seed: 90, 28, 12 and 120 simulated seconds
    /// (4 crash cycles) per second asked for. That is what a second of
    /// one pinned CPU of the 2-core machine this was written on
    /// simulates — except for `read_cached`, which gets 1.7 host seconds
    /// per second asked for so that its 16 updates a simulated second
    /// leave the p99 twice the ten samples beyond it that it needs.
    pub fn steps(self, seconds: f64) -> u32 {
        let per_second = match self {
            Workload::PaperMix => 360.0,
            Workload::WriteBurst => 112.0,
            Workload::ReadCached => 48.0,
            Workload::Failover => 4.0,
        };
        (seconds * per_second).ceil().max(1.0) as u32
    }

    /// `--smoke`: 3 simulated seconds; for `failover`, two crash cycles.
    pub fn smoke_steps(self) -> u32 {
        match self {
            Workload::Failover => 2,
            _ => 12,
        }
    }

    /// The traced pass keeps the span tree of one client op in this
    /// many, which bounds collector memory on op-dense workloads.
    fn trace_one_in(self) -> u64 {
        match self {
            Workload::PaperMix => 8,
            Workload::ReadCached => 64,
            Workload::WriteBurst | Workload::Failover => 1,
        }
    }

    fn clients(self) -> Vec<Plan> {
        let closed = |think_us| Pace::Closed {
            think: Duration::from_micros(think_us),
        };
        let six_tries = GiveUp::Tries(6);
        match self {
            // The paper's own deployment at Fig. 7–9 concurrency.
            Workload::PaperMix => {
                let mut v = vec![Plan::reader(DirPick::Fixed(0), closed(10_000), six_tries); 4];
                v.extend(vec![
                    Plan::writer(
                        DirPick::Fixed(0),
                        closed(250_000),
                        six_tries
                    );
                    2
                ]);
                v
            }
            // One directory per writer, so directory size is stationary
            // and the sequencers, the flush path, the disks and the
            // routers do nearly all the work; a few readers keep the
            // read path of a saturated shard in view. Four writers per
            // shard already saturate its disk; think times keep them
            // from marching in lock step.
            Workload::WriteBurst => {
                let mut v: Vec<Plan> = (0..self.dirs())
                    .map(|d| Plan::writer(DirPick::Fixed(d), closed(50_000), six_tries))
                    .collect();
                v.extend(vec![
                    Plan::reader(
                        DirPick::Uniform,
                        closed(20_000),
                        six_tries
                    );
                    4
                ]);
                v
            }
            // Reads concentrate (Zipf), updates spread (uniform) and are
            // paced — one append+delete pair, then a pause — so every
            // directory sees periodic revocations.
            Workload::ReadCached => {
                let zipf = Arc::new(Zipf::new(self.dirs(), 1.1));
                let mut v = vec![Plan::reader(DirPick::Zipf(zipf), closed(1_000), six_tries); 16];
                let mut w = Plan::writer(DirPick::Uniform, closed(0), six_tries);
                w.pair_pause = Duration::from_millis(250);
                v.extend(vec![w; 4]);
                v
            }
            // Paced clients: an op due while no majority exists is
            // counted from when it was due, and is retried until it is
            // served rather than given up on.
            Workload::Failover => {
                let give_up = GiveUp::After(Duration::from_secs(8));
                let every = |ms| Pace::Open {
                    period: Duration::from_millis(ms),
                };
                let mut v = vec![Plan::writer(DirPick::Fixed(0), every(250), give_up); 4];
                // A period the window is no multiple of, so how many
                // lookups fall inside it depends on the instants drawn.
                v.extend(vec![
                    Plan::reader(DirPick::Fixed(0), every(470), give_up);
                    2
                ]);
                v
            }
        }
    }
}

#[derive(Debug, Clone)]
enum DirPick {
    Fixed(usize),
    Uniform,
    Zipf(Arc<Zipf>),
}

#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Next op only after the previous one completed and a think time
    /// drawn uniformly from `[0, 2 × think]`. The service commits in a
    /// fixed rhythm, and clients with a constant think time lock onto one
    /// phase of it — which phase depends on the seed, and moved lookup
    /// throughput by a quarter from seed to seed.
    Closed { think: Duration },
    /// Op `k` is due at an instant drawn uniformly from the `k`-th
    /// period, whatever happened before; latency counts from then.
    Open { period: Duration },
}

#[derive(Debug, Clone, Copy)]
enum GiveUp {
    Tries(u32),
    After(Duration),
}

#[derive(Debug, Clone)]
struct Plan {
    writes: bool,
    dirs: DirPick,
    pace: Pace,
    give_up: GiveUp,
    /// Writers only: pause after each append+delete pair.
    pair_pause: Duration,
}

impl Plan {
    fn reader(dirs: DirPick, pace: Pace, give_up: GiveUp) -> Plan {
        Plan {
            writes: false,
            dirs,
            pace,
            give_up,
            pair_pause: Duration::ZERO,
        }
    }

    fn writer(dirs: DirPick, pace: Pace, give_up: GiveUp) -> Plan {
        Plan {
            writes: true,
            ..Plan::reader(dirs, pace, give_up)
        }
    }
}

/// The name a writer most recently had acknowledged in a directory, for
/// the never-a-stale-read check. The simulator runs one process at a
/// time, so this host-side state is ordered exactly like simulated time.
#[derive(Debug, Default)]
struct Probe {
    name: String,
    present: bool,
    /// No update of `name` is in flight.
    settled: bool,
    /// Bumped whenever any of the above changes.
    version: u64,
}

#[derive(Debug)]
struct Dir {
    cap: Capability,
    probe: Mutex<Probe>,
}

#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    /// While set, paced writers skip the updates that fall due.
    hold_writes: AtomicBool,
    dirs: Vec<Dir>,
}

/// What one client process hands back when it stops.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub updates: Vec<Sample>,
    pub lookups: Vec<Sample>,
    /// Ops that ran out of tries.
    pub gave_up: Vec<Sample>,
    /// Wrong answers; any one fails the run.
    pub wrong: Vec<String>,
    /// Due times of the updates a paced writer skipped while writes were
    /// held around a reboot.
    pub held: Vec<u64>,
    /// Acknowledged appends not yet deleted, oldest first:
    /// `(directory, name)`.
    live: VecDeque<(usize, String)>,
    /// Names whose last update ran out of tries: present or not.
    uncertain: Vec<(usize, String)>,
}

fn seed_name(i: usize) -> String {
    format!("r{i:02}")
}

/// The capability stored under `name`: distinct per name, so a lookup
/// that returns another row's capability is caught.
fn cap_for(dir: &Capability, name: &str) -> Capability {
    let object = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    Capability::owner(dir.port, object, dir.check)
}

fn masks() -> Vec<Rights> {
    vec![Rights::ALL, Rights::NONE]
}

/// Runs `attempt` until it answers; `None` (a transient error) is
/// retried after a pause while `give_up` allows, then given up on.
fn with_retries<T>(
    ctx: &Ctx,
    start: SimTime,
    give_up: GiveUp,
    mut attempt: impl FnMut() -> Option<T>,
) -> Option<T> {
    let mut tries = 0;
    loop {
        tries += 1;
        if let Some(answer) = attempt() {
            return Some(answer);
        }
        let spent = match give_up {
            GiveUp::Tries(n) => tries >= n,
            GiveUp::After(d) => ctx.now() >= start + d,
        };
        if spent {
            return None;
        }
        ctx.sleep(RETRY_PAUSE);
    }
}

/// One append or delete of a name only this op ever uses. The RPC layer
/// under `DirClient` resends a request whose reply is late (and our own
/// retries do the same), so `DuplicateName` to an append — `NoSuchName`
/// to a delete — means an earlier transmission of this very op landed:
/// it counts as acknowledged.
fn update(
    ctx: &Ctx,
    cli: &DirClient,
    dir: &Capability,
    name: &str,
    append: bool,
    start: SimTime,
    give_up: GiveUp,
) -> bool {
    with_retries(ctx, start, give_up, || {
        let (r, landed_earlier) = if append {
            let r = cli.append_row(ctx, *dir, name, cap_for(dir, name), masks());
            (r, DirError::DuplicateName)
        } else {
            (cli.delete_row(ctx, *dir, name), DirError::NoSuchName)
        };
        match r {
            Ok(()) => Some(()),
            Err(DirClientError::Service(e)) if e == landed_earlier => Some(()),
            Err(_) => None,
        }
    })
    .is_some()
}

fn lookup(
    ctx: &Ctx,
    cli: &DirClient,
    dir: &Capability,
    name: &str,
    start: SimTime,
    give_up: GiveUp,
) -> Option<Option<Capability>> {
    with_retries(ctx, start, give_up, || cli.lookup(ctx, *dir, name).ok())
}

fn client(
    ctx: &Ctx,
    cli: &DirClient,
    shared: &Shared,
    plan: &Plan,
    id: usize,
    seed: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(seed, 0x100 + id as u64);
    let base = ctx.now();
    let stopped = || shared.stop.load(Ordering::Relaxed);
    let mut k = 0u32;
    while !stopped() {
        let start = match plan.pace {
            Pace::Closed { .. } => ctx.now(),
            Pace::Open { period } => {
                let due = base + period * k + period.mul_f64(rng.unit());
                if ctx.now() < due {
                    ctx.sleep_until(due);
                    if stopped() {
                        break;
                    }
                }
                if plan.writes && shared.hold_writes.load(Ordering::Relaxed) {
                    log.held.push(due.as_nanos());
                    k += 1;
                    continue;
                }
                due
            }
        };
        if plan.writes {
            write_op(ctx, cli, shared, plan, id, k, start, &mut rng, &mut log);
        } else {
            read_op(ctx, cli, shared, plan, start, &mut rng, &mut log);
        }
        if let Pace::Closed { think } = plan.pace {
            if !think.is_zero() {
                ctx.sleep(think.mul_f64(rng.unit() * 2.0));
            }
        }
        k += 1;
    }
    log
}

fn pick_dir(plan: &Plan, shared: &Shared, rng: &mut Rng) -> usize {
    match &plan.dirs {
        DirPick::Fixed(d) => *d,
        DirPick::Uniform => rng.below(shared.dirs.len()),
        DirPick::Zipf(z) => z.pick(rng),
    }
}

/// Appends a fresh name, or — once this writer has more than
/// [`KEEP_LIVE`] rows of its own — deletes its oldest, so appends and
/// deletes alternate and directories stay the size they reach in
/// warm-up: faster code is not handed bigger objects.
#[allow(clippy::too_many_arguments)]
fn write_op(
    ctx: &Ctx,
    cli: &DirClient,
    shared: &Shared,
    plan: &Plan,
    id: usize,
    k: u32,
    start: SimTime,
    rng: &mut Rng,
    log: &mut ClientLog,
) {
    let (d, name, append) = if log.live.len() > KEEP_LIVE {
        let (d, name) = log.live.pop_front().expect("non-empty");
        (d, name, false)
    } else {
        (pick_dir(plan, shared, rng), format!("w{id}-{k}"), true)
    };
    let dir = &shared.dirs[d];
    {
        let mut p = dir.probe.lock().expect("probe lock");
        *p = Probe {
            name: name.clone(),
            present: !append,
            settled: false,
            version: p.version + 1,
        };
    }
    let acked = update(ctx, cli, &dir.cap, &name, append, start, plan.give_up);
    let sample = Sample {
        start: start.as_nanos(),
        end: ctx.now().as_nanos(),
    };
    if !acked {
        log.gave_up.push(sample);
        log.uncertain.push((d, name));
        return;
    }
    log.updates.push(sample);
    {
        let mut p = dir.probe.lock().expect("probe lock");
        // Another writer of this directory may have taken the probe over
        // meanwhile; then it is theirs to settle.
        if p.name == name {
            p.present = append;
            p.settled = true;
            p.version += 1;
        }
    }
    if append {
        log.live.push_back((d, name));
    } else if !plan.pair_pause.is_zero() {
        ctx.sleep(plan.pair_pause);
    }
}

fn read_op(
    ctx: &Ctx,
    cli: &DirClient,
    shared: &Shared,
    plan: &Plan,
    start: SimTime,
    rng: &mut Rng,
    log: &mut ClientLog,
) {
    let d = pick_dir(plan, shared, rng);
    let dir = &shared.dirs[d];
    let probed = (rng.below(PROBE_ONE_IN) == 0)
        .then(|| {
            let p = dir.probe.lock().expect("probe lock");
            p.settled.then(|| (p.name.clone(), p.present, p.version))
        })
        .flatten();
    let (name, present, version) = match probed {
        Some((name, present, version)) => (name, present, Some(version)),
        None => (seed_name(rng.below(SEED_ROWS)), true, None),
    };
    let answer = lookup(ctx, cli, &dir.cap, &name, start, plan.give_up);
    let sample = Sample {
        start: start.as_nanos(),
        end: ctx.now().as_nanos(),
    };
    let Some(answer) = answer else {
        return log.gave_up.push(sample);
    };
    log.lookups.push(sample);
    // A probed name is checked only if no update of it began while the
    // lookup ran: the lookup started after the ack it must agree with.
    let checkable = version.is_none_or(|v| dir.probe.lock().expect("probe lock").version == v);
    let expected = present.then(|| cap_for(&dir.cap, &name));
    if checkable && answer != expected {
        log.wrong.push(format!(
            "lookup of {name} in directory {d} answered {answer:?}, expected {expected:?}"
        ));
    }
}

/// One crash cycle as the harness saw it, in simulated nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CycleRec {
    pub crashed_at: u64,
    /// `restart_server` → victim normal with a survivor's `update_seq`.
    pub rejoin_ns: u64,
}

/// Cumulative counters by `layer.counter` name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds column `i`'s group and replica-driver counters, read off the
/// public getters of its current incarnation, to `counts`.
fn add_column(counts: &mut Counts, cluster: &Cluster, i: usize) {
    let srv = cluster.group_server(i);
    let g = srv.group_stats().unwrap_or_default();
    let r = srv.replica_stats();
    for (name, n) in [
        ("group.sends", g.sends),
        ("group.retrans", g.retrans_requests),
        ("group.send_retries", g.send_retries),
        ("group.resets", g.resets),
        ("group.failures", g.failures),
        ("rsm.applied", r.applied),
        ("rsm.batches", r.batches),
        ("rsm.flush_runs", r.flush_runs),
        ("rsm.window_stalls", r.window_stalls),
        ("rsm.aborted", r.aborted),
        ("rsm.recoveries", r.recoveries),
    ] {
        *counts.entry(name).or_insert(0) += n;
    }
}

/// A running deployment with its clients.
pub struct Deployment {
    pub workload: Workload,
    pub sim: Simulation,
    pub cluster: Cluster,
    pub tele: Option<Telemetry>,
    /// Client handles, for the cache counters.
    pub clients: Vec<DirClient>,
    /// The simulator's own counters as of the last step.
    pub run_stats: RunStats,
    /// Crash cycles completed (`failover` only).
    pub cycles: Vec<CycleRec>,
    /// Violations the harness itself saw (a replica not back in time).
    pub violations: Vec<String>,
    shared: Arc<Shared>,
    admin: DirClient,
    procs: Vec<ProcOutput<ClientLog>>,
    /// Counters of server incarnations that crashed since.
    retired: Counts,
}

/// Steps the simulation until `ready`, or panics after `limit`.
fn run_until_ready(sim: &mut Simulation, limit: Duration, what: &str, ready: impl Fn() -> bool) {
    let deadline = sim.now() + limit;
    while !ready() {
        assert!(
            sim.now() < deadline,
            "{what} did not finish within {limit:?} simulated"
        );
        sim.run_for(Duration::from_millis(100));
    }
}

impl Deployment {
    /// Forms the cluster, creates and seeds the directories, starts the
    /// clients and runs the warm-up: everything `setup_s` covers.
    pub fn start(workload: Workload, seed: u64, traced: bool) -> Deployment {
        let mut sim = Simulation::new(seed);
        // Installed before the cluster starts, so every machine's track
        // is named.
        let tele =
            traced.then(|| Telemetry::install_sampled(&sim.handle(), workload.trace_one_in()));
        let mut cluster = Cluster::start(
            &sim,
            ClusterParams {
                seed,
                ..workload.params()
            },
        );

        // Wait for every replica to be in normal operation first.
        run_until_ready(
            &mut sim,
            Duration::from_secs(120),
            "cluster formation",
            || (0..cluster.columns.len()).all(|i| cluster.group_server(i).is_normal()),
        );

        // Directories are created by one client in sequence (so they
        // land round-robin over the shards), then seeded per shard in
        // parallel.
        let (admin, _) = cluster.client(&sim);
        let n_dirs = workload.dirs();
        let made = {
            let admin = admin.clone();
            sim.spawn("make-dirs", move |ctx| {
                (0..n_dirs)
                    .map(|_| loop {
                        // Errors until the replicas have formed their group.
                        match admin.create_dir(ctx, &["owner", "other"]) {
                            Ok(cap) => break cap,
                            Err(_) => ctx.sleep(Duration::from_millis(100)),
                        }
                    })
                    .collect::<Vec<Capability>>()
            })
        };
        run_until_ready(
            &mut sim,
            Duration::from_secs(120),
            "directory creation",
            || made.is_ready(),
        );
        let caps = made.take().expect("directories created");
        let lanes = cluster.params.effective_shards();
        let seeders: Vec<ProcOutput<()>> = (0..lanes)
            .map(|lane| {
                let admin = admin.clone();
                let caps = caps.clone();
                sim.spawn(&format!("seed-rows-{lane}"), move |ctx| {
                    for dir in caps.iter().skip(lane).step_by(lanes) {
                        for i in 0..SEED_ROWS {
                            let name = seed_name(i);
                            let give_up = GiveUp::Tries(50);
                            let ok = update(ctx, &admin, dir, &name, true, ctx.now(), give_up);
                            assert!(ok, "seeding {name} failed");
                        }
                    }
                })
            })
            .collect();
        run_until_ready(
            &mut sim,
            Duration::from_secs(300),
            "directory seeding",
            || seeders.iter().all(ProcOutput::is_ready),
        );

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            hold_writes: AtomicBool::new(false),
            dirs: caps
                .into_iter()
                .map(|cap| Dir {
                    cap,
                    probe: Mutex::default(),
                })
                .collect(),
        });
        let mut clients = Vec::new();
        let mut procs = Vec::new();
        for (id, plan) in workload.clients().into_iter().enumerate() {
            // Each client on its own machine, like the paper's workstations.
            let (cli, _) = cluster.client(&sim);
            clients.push(cli.clone());
            let shared = Arc::clone(&shared);
            procs.push(sim.spawn(&format!("client-{id}"), move |ctx| {
                client(ctx, &cli, &shared, &plan, id, seed)
            }));
        }
        let run_stats = sim.run_for(WARMUP);
        Deployment {
            workload,
            sim,
            cluster,
            tele,
            clients,
            run_stats,
            cycles: Vec::new(),
            violations: Vec::new(),
            shared,
            admin,
            procs,
            retired: Counts::new(),
        }
    }

    /// Advances the run by one [`Workload::quantum`].
    pub fn step(&mut self) {
        if self.workload == Workload::Failover {
            self.crash_cycle();
        } else {
            self.run_stats = self.sim.run_for(self.workload.quantum());
        }
    }

    /// Crash one replica (a different one each cycle, so every third
    /// victim is the sequencer of the moment), reboot it 10 s later, and
    /// time how long it takes to be back in step with a survivor.
    fn crash_cycle(&mut self) {
        let n = self.cycles.len();
        let victim = n % 3;
        let survivor = (victim + 1) % 3;
        let t0 = self.sim.now();
        // Slide the crash instant across the clients' 250 ms period.
        let crash_at = t0 + Duration::from_secs(10) + Duration::from_millis(137) * (n % 16) as u32;
        self.sim.run_until(crash_at);
        self.cluster.crash_server(&self.sim, victim);
        // No update may be applied while the victim fetches its state: one
        // that is can be missing from the rejoined replica for good (seen
        // on seed 302). So the writers skip what falls due from half a
        // second before the reboot, by when their ops in flight have
        // drained, until the victim is back in step.
        self.sim.run_until(t0 + Duration::from_millis(19_500));
        self.shared.hold_writes.store(true, Ordering::Relaxed);
        self.sim.run_until(t0 + Duration::from_secs(20));
        add_column(&mut self.retired, &self.cluster, victim);
        let restarted = self.sim.now();
        self.cluster.restart_server(&self.sim, victim);
        let in_step = |c: &Cluster| {
            let v = c.group_server(victim);
            v.is_normal() && v.update_seq() == c.group_server(survivor).update_seq()
        };
        let end = t0 + CYCLE;
        while !in_step(&self.cluster) && self.sim.now() < end {
            self.sim.run_for(Duration::from_millis(10));
        }
        let rejoined = self.sim.now();
        self.shared.hold_writes.store(false, Ordering::Relaxed);
        self.run_stats = self.sim.run_until(end);
        if rejoined >= end || !(0..3).all(|i| self.cluster.group_server(i).is_normal()) {
            self.violations.push(format!(
                "cycle {n}: replica {victim} was not back in step 10 s after its reboot"
            ));
        }
        self.cycles.push(CycleRec {
            crashed_at: crash_at.as_nanos(),
            rejoin_ns: (rejoined - restarted).as_nanos() as u64,
        });
    }

    /// Server-side counters over all incarnations so far.
    pub fn server_counters(&self) -> Counts {
        let mut c = self.retired.clone();
        for i in 0..self.cluster.columns.len() {
            add_column(&mut c, &self.cluster, i);
        }
        c
    }

    /// Stops the clients, lets their ops in flight finish, and checks the
    /// outputs: every acknowledged append not later deleted is listed
    /// (and nothing else is), and each shard's replicas are in normal
    /// operation at one `update_seq`.
    pub fn finish(mut self) -> Finished {
        self.shared.stop.store(true, Ordering::Relaxed);
        let procs = std::mem::take(&mut self.procs);
        run_until_ready(
            &mut self.sim,
            Duration::from_secs(300),
            "client drain",
            || procs.iter().all(ProcOutput::is_ready),
        );
        let logs: Vec<ClientLog> = procs
            .iter()
            .map(|p| p.take().expect("client finished"))
            .collect();
        let mut violations = std::mem::take(&mut self.violations);
        violations.extend(logs.iter().flat_map(|l| l.wrong.iter().cloned()));

        let listed = {
            let admin = self.admin.clone();
            let shared = Arc::clone(&self.shared);
            self.sim.spawn("final-list", move |ctx| {
                shared
                    .dirs
                    .iter()
                    .map(|dir| {
                        let rows = lookup_listing(ctx, &admin, &dir.cap);
                        rows.map(|names| names.into_iter().collect::<BTreeSet<String>>())
                    })
                    .collect::<Vec<Option<BTreeSet<String>>>>()
            })
        };
        run_until_ready(
            &mut self.sim,
            Duration::from_secs(300),
            "final listing",
            || listed.is_ready(),
        );
        for (d, names) in listed
            .take()
            .expect("listing finished")
            .into_iter()
            .enumerate()
        {
            let Some(names) = names else {
                violations.push(format!("directory {d} could not be listed"));
                continue;
            };
            let mut expected: BTreeSet<String> = (0..SEED_ROWS).map(seed_name).collect();
            let of_dir = |(dir, name): &(usize, String)| (*dir == d).then(|| name.clone());
            expected.extend(logs.iter().flat_map(|l| l.live.iter().filter_map(of_dir)));
            let uncertain: BTreeSet<String> = logs
                .iter()
                .flat_map(|l| l.uncertain.iter().filter_map(of_dir))
                .collect();
            for lost in expected.difference(&names) {
                if !uncertain.contains(lost) {
                    violations.push(format!(
                        "directory {d}: acknowledged row {lost} is not listed"
                    ));
                }
            }
            for extra in names.difference(&expected) {
                if !uncertain.contains(extra) {
                    violations.push(format!(
                        "directory {d}: row {extra} is listed but was deleted"
                    ));
                }
            }
        }

        // Idle now: every replica of a shard must be in normal operation
        // and have applied the same updates, give or take a last flush.
        let servers = self.cluster.params.variant.servers();
        let shards = self.cluster.params.effective_shards();
        let seqs = |c: &Cluster, shard| -> Vec<u64> {
            (0..servers)
                .map(|i| c.shard_server(shard, i).update_seq())
                .collect()
        };
        let settled = |c: &Cluster| {
            (0..shards).all(|shard| {
                let s = seqs(c, shard);
                (0..servers).all(|i| c.shard_server(shard, i).is_normal() && s[i] == s[0])
            })
        };
        let deadline = self.sim.now() + Duration::from_secs(5);
        while !settled(&self.cluster) && self.sim.now() < deadline {
            self.sim.run_for(Duration::from_millis(100));
        }
        if !settled(&self.cluster) {
            for shard in 0..shards {
                violations.push(format!(
                    "shard {shard}: replicas not all normal and in agreement at the end (update_seq {:?})",
                    seqs(&self.cluster, shard)
                ));
            }
        }
        Finished {
            deployment: self,
            logs,
            violations,
        }
    }
}

fn lookup_listing(ctx: &Ctx, cli: &DirClient, dir: &Capability) -> Option<Vec<String>> {
    for _ in 0..50 {
        match cli.list(ctx, *dir) {
            Ok(listing) => {
                return Some(listing.rows.into_iter().map(|(name, _, _)| name).collect())
            }
            Err(_) => ctx.sleep(RETRY_PAUSE),
        }
    }
    None
}

/// A run after its clients stopped and its outputs were checked.
pub struct Finished {
    pub deployment: Deployment,
    pub logs: Vec<ClientLog>,
    /// Output checks that failed; empty for a correct run.
    pub violations: Vec<String>,
}
