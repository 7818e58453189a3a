//! The repo's benchmark: four default-configuration workloads of the
//! directory service on the deterministic simulator, measured on both
//! clocks, with a per-layer table from a traced pass. See `README.md`.
//!
//! One run — one workload, one pass — is
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! its last line of standard output is the result object. `suite` runs
//! everything and prints a table; `compare` sets two suite files side
//! by side.

mod host;
mod layers;
mod stats;
mod suite;
mod workload;

use std::time::{Duration, Instant};

use host::Usage;
use layers::{codec_ns, Snapshot, SpanTable, LAYERS};
use stats::{lower_quartile, mean, median_f64, percentile, Sample, MIN_BEYOND};
use workload::{ClientLog, Deployment, Finished, Workload, MIN_HIT_RATE, OUTAGE_HORIZON};

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

#[derive(Debug, Clone, Copy)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    /// The measured window, in [`Workload::quantum`]s: a fixed simulated
    /// window, so every simulated-clock number and every sample count
    /// repeats exactly for a seed, whatever the machine.
    steps: u32,
    traced: bool,
    /// Samples a printed percentile must leave beyond itself: ten, but
    /// none under `--smoke`, whose window is too short for a p99.
    min_beyond: usize,
}

/// What the clients saw inside the window, on the simulated clock. Two
/// passes of one seed over the same steps must agree on every field.
#[derive(Debug, Clone, PartialEq)]
struct SimSide {
    attempted: usize,
    gave_up: usize,
    updates: usize,
    lookups: usize,
    updates_per_s: f64,
    update_p50_ms: f64,
    update_p99_ms: f64,
    lookups_per_s: f64,
    lookup_mean_ms: f64,
    lookup_p99_ms: f64,
    /// Samples beyond the two p99s.
    beyond: (usize, usize),
    /// Updates the paced writers of `failover` skipped around a reboot.
    held: usize,
    outage_ms: f64,
    rejoin_ms: f64,
}

struct Pass {
    before: Snapshot,
    after: Snapshot,
    setup_s: Vec<f64>,
    host_cpu_ms_per_sim_s: f64,
    peak_rss_mb: f64,
    threads_peak: u64,
    sim: SimSide,
    finished: Finished,
}

impl Pass {
    fn window_s(&self) -> f64 {
        (self.after.now - self.before.now).as_secs_f64()
    }

    fn cpu_s(&self) -> f64 {
        self.after
            .usage
            .since(&self.before.usage)
            .cpu()
            .as_secs_f64()
    }
}

fn sim_side(
    logs: &[ClientLog],
    dep: &Deployment,
    from: u64,
    to: u64,
    min_beyond: usize,
) -> Result<SimSide, String> {
    let window_s = (to - from) as f64 / 1e9;
    // Sorted latencies of the ops of one kind that ended in the window.
    let in_window = |pick: fn(&ClientLog) -> &Vec<Sample>| {
        let mut v: Vec<u64> = logs
            .iter()
            .flat_map(pick)
            .filter(|s| s.end >= from && s.end < to)
            .map(Sample::latency)
            .collect();
        v.sort_unstable();
        v
    };
    let (up, look) = (in_window(|l| &l.updates), in_window(|l| &l.lookups));
    let gave_up = in_window(|l| &l.gave_up).len();
    let held = logs
        .iter()
        .flat_map(|l| &l.held)
        .filter(|due| **due >= from && **due < to)
        .count();
    let pct = |what: &str, sorted: &[u64], p: f64| {
        percentile(sorted, p, min_beyond)
            .map(|(ns, beyond)| (ns as f64 / 1e6, beyond))
            .ok_or_else(|| {
                format!(
                    "{what} p{p}: {} samples leave fewer than {min_beyond} beyond it",
                    sorted.len()
                )
            })
    };
    let (update_p50_ms, _) = pct("update", &up, 50.0)?;
    let (update_p99_ms, up_beyond) = pct("update", &up, 99.0)?;
    let (lookup_p99_ms, look_beyond) = pct("lookup", &look, 99.0)?;

    let mut acks: Vec<u64> = logs
        .iter()
        .flat_map(|l| &l.updates)
        .map(|s| s.end)
        .collect();
    acks.sort_unstable();
    let horizon = OUTAGE_HORIZON.as_nanos() as u64;
    let mut outages: Vec<f64> = dep
        .cycles
        .iter()
        .map(|c| stats::longest_gap(&acks, c.crashed_at, horizon) as f64 / 1e6)
        .collect();
    let mut rejoins: Vec<f64> = dep
        .cycles
        .iter()
        .map(|c| c.rejoin_ns as f64 / 1e6)
        .collect();
    let median_or_zero = |v: &mut Vec<f64>| if v.is_empty() { 0.0 } else { median_f64(v) };
    Ok(SimSide {
        attempted: up.len() + look.len() + gave_up,
        gave_up,
        updates: up.len(),
        lookups: look.len(),
        updates_per_s: up.len() as f64 / window_s,
        update_p50_ms,
        update_p99_ms,
        lookups_per_s: look.len() as f64 / window_s,
        lookup_mean_ms: mean(&look) / 1e6,
        lookup_p99_ms,
        beyond: (up_beyond, look_beyond),
        held,
        outage_ms: median_or_zero(&mut outages),
        rejoin_ms: median_or_zero(&mut rejoins),
    })
}

/// Set-ups timed per untraced run, `setup_s` being their median: three,
/// and more of the cheap ones (a 60 ms set-up is mostly process noise)
/// until they have taken this long in total.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Pieces the window's host cost is taken over. Other load on the
/// machine only ever adds to a piece's cost, and comes in bursts, so the
/// first-quartile piece is reported, not the mean.
const PIECES: u32 = 32;

/// Sets the deployment up (several times when `time_setups`, timing each
/// and keeping the last), measures `args.steps` steps, and checks the
/// outputs.
fn run_pass(args: &RunArgs, traced: bool, time_setups: bool) -> Result<Pass, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut dep = None;
    let enough = |s: &[f64]| {
        !time_setups
            || s.len() >= MAX_SETUPS
            || (s.len() >= MIN_SETUPS && s.iter().sum::<f64>() >= SETUP_BUDGET.as_secs_f64())
    };
    while dep.is_none() || !enough(&setup_s) {
        drop(dep.take());
        let t0 = Instant::now();
        dep = Some(Deployment::start(args.workload, args.seed, traced));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut dep = dep.expect("at least one setup");

    let before = Snapshot::take(&dep);
    let mut threads_peak = host::threads();
    let per_piece = args.steps.div_ceil(PIECES);
    let mut pieces: Vec<f64> = Vec::new();
    let mut piece = (Usage::now(), dep.sim.now());
    for step in 1..=args.steps {
        dep.step();
        threads_peak = threads_peak.max(host::threads());
        if step % per_piece == 0 || step == args.steps {
            let cpu = Usage::now().since(&piece.0).cpu().as_secs_f64();
            pieces.push(cpu * 1e3 / (dep.sim.now() - piece.1).as_secs_f64());
            piece = (Usage::now(), dep.sim.now());
        }
    }
    eprintln!("perfbench: host cpu ms per simulated s, piece by piece: {pieces:.2?}");
    let after = Snapshot::take(&dep);
    let peak_rss_mb = host::peak_rss_mb().ok_or("VmHWM is missing from /proc/self/status")?;
    let mut finished = dep.finish();
    if args.workload == Workload::ReadCached {
        // The workload's premise, checked.
        let hit_rate = after.cache_hit_rate(&before);
        eprintln!("perfbench: cache hit rate {hit_rate:.4}");
        if hit_rate < MIN_HIT_RATE {
            finished.violations.push(format!(
                "cache hit rate {hit_rate:.3} is below {MIN_HIT_RATE}: most lookups were not served by the cache"
            ));
        }
    }
    let sim = sim_side(
        &finished.logs,
        &finished.deployment,
        before.now.as_nanos(),
        after.now.as_nanos(),
        args.min_beyond,
    )?;
    Ok(Pass {
        before,
        after,
        setup_s,
        host_cpu_ms_per_sim_s: lower_quartile(&mut pieces),
        peak_rss_mb,
        threads_peak,
        sim,
        finished,
    })
}

fn end_to_end(p: &mut Pass) -> Vec<Metric> {
    let mut t = Rows::default();
    t.add("setup_s", median_f64(&mut p.setup_s), "s");
    t.add("host_cpu_ms_per_sim_s", p.host_cpu_ms_per_sim_s, "ms/s");
    t.add("peak_rss_mb", p.peak_rss_mb, "MB");
    t.add("updates_per_s", p.sim.updates_per_s, "1/s");
    t.ms("update_p50_ms", p.sim.update_p50_ms);
    t.ms("update_p99_ms", p.sim.update_p99_ms);
    t.add("lookups_per_s", p.sim.lookups_per_s, "1/s");
    t.ms("lookup_mean_ms", p.sim.lookup_mean_ms);
    t.ms("lookup_p99_ms", p.sim.lookup_p99_ms);
    t.0
}

/// The rows of one printed table, in print order.
#[derive(Default)]
struct Rows(Vec<Metric>);

impl Rows {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn count(&mut self, name: &str, value: f64) {
        self.add(name, value, "count");
    }

    fn ms(&mut self, name: &str, value: f64) {
        self.add(name, value, "ms");
    }
}

/// The per-layer table: counts from the untraced pass `a`, spans from
/// the traced pass `b` of the same seed over the same steps.
fn per_layer(a: &Pass, b: &Pass, table: &SpanTable) -> Vec<Metric> {
    let d = |name: &str| a.after.delta(&a.before, name);
    let per = |n: f64, of: f64| if of > 0.0 { n / of } else { 0.0 };
    let ops = (a.sim.updates + a.sim.lookups) as f64;
    let updates = a.sim.updates as f64;
    let lookups = a.sim.lookups as f64;
    let events = d("sim.events");
    let usage = a.after.usage.since(&a.before.usage);
    let cpu_s = a.cpu_s();
    let traced_ops = (table.traced_ops as f64).max(1.0);
    let handles = table.handles as f64;
    let dep = &a.finished.deployment;

    let mut t = Rows::default();
    t.count("sim.events_per_op", events / ops);
    t.add("sim.events_per_sim_s", events / a.window_s(), "1/s");
    t.add("sim.host_us_per_event", cpu_s * 1e6 / events, "us");
    t.add("sim.host_ms_per_sim_s", a.host_cpu_ms_per_sim_s, "ms/s");
    t.count(
        "sim.ctx_switches_per_event",
        usage.ctx_switches as f64 / events,
    );
    t.add("sim.sys_share", usage.sys.as_secs_f64() / cpu_s, "share");
    t.count("sim.threads_peak", a.threads_peak as f64);

    t.count("flip.packets_per_op", d("flip.packets") / ops);
    t.add("flip.bytes_per_op", d("flip.bytes") / ops, "B");
    t.count("flip.multicast_per_op", d("flip.multicast") / ops);
    t.count("flip.forwarded_per_op", d("flip.forwarded") / ops);
    t.count("flip.mcast_pruned_per_op", d("flip.mcast_pruned") / ops);
    t.count("flip.dropped_per_op", d("flip.dropped") / ops);
    t.add(
        "flip.wire_busy_share",
        a.after.wire_busy_share(&a.before),
        "share",
    );
    t.ms("flip.hop_ms", table.hop_ms);

    t.count("rpc.handles_per_op", handles / traced_ops);

    t.ms("group.order_ms", table.span_ms("grp.order"));
    t.count("group.sends_per_update", d("group.sends") / updates);
    t.count("group.retrans_per_update", d("group.retrans") / updates);
    t.count(
        "group.send_retries_per_update",
        d("group.send_retries") / updates,
    );
    t.count("group.resets", d("group.resets"));
    t.count("group.failures", d("group.failures"));

    t.count("rsm.ops_per_batch", per(d("rsm.applied"), d("rsm.batches")));
    t.ms("rsm.apply_ms", table.span_ms("rsm.apply"));
    t.ms("rsm.flush_ms", table.span_ms("rsm.flush"));
    t.count("rsm.flush_runs_per_update", d("rsm.flush_runs") / updates);
    t.count("rsm.window_stalls", d("rsm.window_stalls"));
    t.count("rsm.aborted", d("rsm.aborted"));
    t.count("rsm.recoveries", d("rsm.recoveries"));

    t.count("disk.writes_per_update", d("disk.writes") / updates);
    t.count("disk.blocks_per_update", d("disk.blocks") / updates);
    t.count("disk.seeks_per_update", d("disk.seeks") / updates);
    t.count("disk.reads_per_update", d("disk.reads") / updates);
    t.count(
        "disk.nvram_appends_per_update",
        d("disk.nvram_appends") / updates,
    );
    // Calibration: the modelled hardware must not change under a perf PR.
    let block = dep.cluster.params.disk.access_time(1);
    t.ms("disk.model_block_ms", block.as_secs_f64() * 1e3);

    let files = dep
        .cluster
        .columns
        .iter()
        .map(|c| c.bullet_store.file_count());
    t.count("bullet.files_live", files.sum::<usize>() as f64);

    let core_ns: u64 = table.budget.values().map(|(_, ns)| ns[layers::CORE]).sum();
    t.ms("core.srv_self_ms", per(core_ns as f64 / 1e6, handles));
    t.add(
        "core.cache_hit_rate",
        a.after.cache_hit_rate(&a.before),
        "share",
    );
    t.count(
        "core.cache_renewals_per_lookup",
        d("cache.renewals") / lookups,
    );
    t.count(
        "core.cache_stale_rejects_per_lookup",
        d("cache.stale_rejects") / lookups,
    );
    t.count(
        "core.cache_invalidations_per_update",
        d("cache.invalidations") / updates,
    );
    for (name, ns) in codec_ns() {
        t.add(name, ns, "ns");
    }

    t.count("telemetry.spans_per_op", table.spans as f64 / traced_ops);
    let overhead = b.host_cpu_ms_per_sim_s / a.host_cpu_ms_per_sim_s;
    t.add("telemetry.host_overhead_ratio", overhead, "ratio");

    t.count("failover.cycles", dep.cycles.len() as f64);
    t.ms("failover.outage_ms", a.sim.outage_ms);
    t.ms("failover.rejoin_ms", a.sim.rejoin_ms);
    t.add(
        "failover.held_updates_share",
        per(a.sim.held as f64, a.sim.held as f64 + updates),
        "share",
    );

    for family in ["update", "lookup"] {
        let mut total = 0.0;
        for (row, suffix) in LAYERS.iter().enumerate() {
            let ms = table.budget_ms(family, row);
            total += ms;
            t.ms(&format!("budget.{family}.{suffix}"), ms);
        }
        // The rows above sum to this: the mean latency of the traced ops.
        t.ms(&format!("budget.{family}.total_ms"), total);
    }
    t.0
}

/// The result object the driver reads: exactly these four keys.
fn result_line(correct: bool, sim: &SimSide, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        sim.attempted,
        sim.gave_up,
        body.join(", ")
    )
}

fn run(args: &RunArgs) -> Result<(), String> {
    // Before any `Simulation` exists: its threads inherit the mask.
    let pin = host::pin_to_one_cpu();
    // The first line of standard output says where the run ran; `suite`
    // keeps it beside the numbers.
    println!(
        "{{\"pinned\": {}, \"cpu\": {}, \"nproc\": {}}}",
        pin.cpu.is_some(),
        pin.cpu.map_or(-1, |c| c as i64),
        pin.nproc
    );
    if pin.cpu.is_none() {
        eprintln!(
            "perfbench: WARNING: could not pin to one CPU ({} allowed); host-clock numbers are unresolved",
            pin.nproc
        );
    }
    let (pass, metrics) = if args.traced {
        // Untraced first; then the same seed over the same window with
        // tracing on, which must not move a single simulated number.
        let a = run_pass(args, false, false)?;
        let b = run_pass(args, true, false)?;
        if a.sim != b.sim {
            return Err(format!(
                "tracing perturbed the simulation:\n untraced {:?}\n traced   {:?}",
                a.sim, b.sim
            ));
        }
        let tele = b.finished.deployment.tele.as_ref().expect("traced pass");
        let table = SpanTable::build(&tele.spans(), &tele.flows(), b.before.now, b.after.now);
        for (family, (n, _)) in &table.budget {
            eprintln!("perfbench: budget.{family}.* are means over {n} traced ops");
        }
        let metrics = per_layer(&a, &b, &table);
        let mut a = a;
        a.finished
            .violations
            .extend(b.finished.violations.iter().cloned());
        (a, metrics)
    } else {
        let mut p = run_pass(args, false, true)?;
        let metrics = end_to_end(&mut p);
        (p, metrics)
    };
    let s = &pass.sim;
    eprintln!(
        "perfbench: {} seed {} window {:.2} simulated s in {:.2} host cpu s; \
         {} updates (p99 has {} beyond), {} lookups (p99 has {} beyond), {} gave up, {} held",
        args.workload.name(),
        args.seed,
        pass.window_s(),
        pass.cpu_s(),
        s.updates,
        s.beyond.0,
        s.lookups,
        s.beyond.1,
        s.gave_up,
        s.held
    );
    for v in &pass.finished.violations {
        eprintln!("perfbench: OUTPUT CHECK FAILED: {v}");
    }
    for (name, value, unit) in &metrics {
        // Unpinned, the one runnable thread wanders between CPUs and the
        // host clock reads anything: shown, but not as a result.
        if pin.cpu.is_none() && suite::HOST_CLOCK.contains(&name.as_str()) {
            println!(
                "{name:<40} {:>16} (unpinned: {value:.4} {unit})",
                "unresolved"
            );
        } else {
            println!("{name:<40} {value:>16.4} {unit}");
        }
    }
    let correct = pass.finished.violations.is_empty();
    println!("{}", result_line(correct, s, &metrics));
    if correct {
        Ok(())
    } else {
        Err(format!(
            "{} output checks failed",
            pass.finished.violations.len()
        ))
    }
}

pub fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

pub const USAGE: &str = "usage:
  perfbench --workload <paper_mix|write_burst|read_cached|failover> [--seed N]
            [--seconds S | --smoke] [--trace 0|1]
  perfbench suite [--seed N] [--seconds S | --smoke] [--repeat N] [--out FILE]
  perfbench compare <a.json> <b.json>";

/// The flags one run and `suite` share, as `(flag, value)` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.push((flag.as_str(), ""));
        } else if flag.starts_with("--") {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            out.push((flag.as_str(), value.as_str()));
        } else {
            return Err(format!("unexpected argument {flag}"));
        }
    }
    Ok(out)
}

fn run_args(flags: &[(&str, &str)]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = suite::DEFAULT_SEED;
    let mut seconds = suite::DEFAULT_SECONDS;
    let mut smoke = false;
    let mut traced = false;
    for (flag, value) in flags {
        let bad = || format!("bad value {value} for {flag}");
        match *flag {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(bad)?
            }
            "--trace" => traced = parse_u64(value).filter(|t| *t <= 1).ok_or_else(bad)? == 1,
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        workload,
        seed,
        steps: if smoke {
            workload.smoke_steps()
        } else {
            workload.steps(seconds)
        },
        traced,
        min_beyond: if smoke { 0 } else { MIN_BEYOND },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => flags(&args[1..]).and_then(|f| suite::suite(&f)),
        Some("compare") => suite::compare(&args[1..]),
        Some(_) => flags(&args)
            .and_then(|f| run_args(&f))
            .and_then(|a| run(&a)),
        None => Err(USAGE.to_owned()),
    };
    if let Err(why) = outcome {
        eprintln!("perfbench: {why}");
        std::process::exit(1);
    }
}
