//! `explore` — fault-schedule search and record/replay driver.
//!
//! ```text
//! explore sweep [--big] [--schedules N] [--seed S] [--buggy] [--journal]
//! explore tally --seeds A..B [--schedules N] [--journal]
//! explore ci-smoke
//! explore replay <bundle.amrx>
//! explore probe [--seeds N] [--fixed] [--loss L] [--trace out.json]
//! ```
//!
//! - `sweep` runs `N` randomized fault schedules over the small (or
//!   `--big`, ≥50-machine multi-hop) deployment; every failure is
//!   shrunk, recorded, replay-verified, and written out as an `.amrx`
//!   repro bundle. Exits nonzero if any failure was found. `--journal`
//!   turns the group log on, so crash windows land on journaled commits
//!   and mid-checkpoint drains.
//! - `tally` runs the small sweep at every seed from `A` to `B`, both
//!   included (`N` schedules each, 500 by default), and counts the
//!   failing schedules by the class of the failure their shrunk
//!   reproduction shows: the fault surface a change to group or
//!   recovery traffic must not worsen. It records nothing and writes no
//!   bundles.
//! - `ci-smoke` is the CI gate: a small clean sweep must find nothing
//!   (in place and journaled — the journaled pass includes the
//!   checkpoint-phase schedule, whose crash windows bracket the
//!   checkpointer's ticks, and round-trips an `.amrx` bundle with the
//!   journal flag), and a deliberately re-introduced historical bug
//!   (the gap-recovery retransmission bound) must be found, shrunk,
//!   and deterministically replayed.
//! - `replay` re-executes a repro bundle under verify-mode replay. A
//!   bundle of another layout version is refused, naming its version.

use std::collections::BTreeMap;
use std::process::ExitCode;

use amoeba_explore::scenario::{run_scenario, RunMode, ScenarioParams, WRITE_START_MS};
use amoeba_explore::schedule::{FaultKind, FaultSchedule, Injection};
use amoeba_explore::search::{
    find_seeded_bug, record_and_verify, shrink, sweep, tally, ReproBundle,
};
use amoeba_flip::wire::Wire;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("tally") => cmd_tally(&args[1..]),
        Some("ci-smoke") => cmd_ci_smoke(),
        Some("replay") => cmd_replay(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        _ => {
            eprintln!("usage: explore <sweep [--big] [--schedules N] [--seed S] [--buggy] [--journal] | tally --seeds A..B [--schedules N] [--journal] | ci-smoke | replay <bundle.amrx>>");
            ExitCode::from(2)
        }
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_u64(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn opt_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let seed = opt_u64(args, "--seed", 1);
    let n = opt_u64(args, "--schedules", 4) as usize;
    let mut params = if flag(args, "--big") {
        ScenarioParams::big(seed)
    } else {
        ScenarioParams::small(seed)
    };
    params.buggy_retrans_bound = flag(args, "--buggy");
    params.journal = flag(args, "--journal");
    println!(
        "sweep: {} schedules over {} machines ({} shards, {} chain segments{}){}",
        n,
        params.machines(),
        params.shards,
        params.chain_segments,
        if params.journal { ", group log on" } else { "" },
        if params.buggy_retrans_bound {
            ", historical retrans bug re-introduced"
        } else {
            ""
        }
    );
    let report = sweep(&params, n, schedule_seed(seed));
    for (i, f) in report.failures.iter().enumerate() {
        println!("failure {i}: {}", f.report.summary());
        println!(
            "  original ({} injections):\n{}",
            f.original.len(),
            f.original
        );
        println!(
            "  minimal  ({} injections):\n{}",
            f.minimal.len(),
            f.minimal
        );
        println!("  replay verified: {}", f.replay_ok);
        if let Some(trace) = &f.report.trace {
            let bundle = ReproBundle {
                params: params.clone(),
                schedule: f.minimal.clone(),
                trace: trace.clone(),
            };
            let path = format!("explore-failure-{i}.amrx");
            match std::fs::write(&path, bundle.encode()) {
                Ok(()) => println!("  repro bundle: {path}"),
                Err(e) => println!("  (could not write repro bundle: {e})"),
            }
        }
    }
    if report.failures.is_empty() {
        println!(
            "clean: {} schedules, no invariant violations",
            report.schedules_run
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "{} of {} schedules failed",
            report.failures.len(),
            report.schedules_run
        );
        ExitCode::FAILURE
    }
}

/// The seed a sweep at scenario seed `seed` draws its schedules from.
fn schedule_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9)
}

fn cmd_tally(args: &[String]) -> ExitCode {
    let seeds = opt_str(args, "--seeds")
        .and_then(|s| s.split_once(".."))
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)));
    let Some((first, last)) = seeds.filter(|(a, b)| a <= b) else {
        eprintln!("usage: explore tally --seeds A..B [--schedules N] [--journal]");
        return ExitCode::from(2);
    };
    let n = opt_u64(args, "--schedules", 500) as usize;
    let journal = flag(args, "--journal");
    let mut total = BTreeMap::new();
    for seed in first..=last {
        let mut params = ScenarioParams::small(seed);
        params.journal = journal;
        let classes = tally(&params, n, schedule_seed(seed));
        let line: Vec<String> = classes.iter().map(|(c, k)| format!("{k} {c}")).collect();
        let failed: usize = classes.values().sum();
        println!("seed {seed}: {failed} of {n} failed  {}", line.join(", "));
        for (class, k) in classes {
            *total.entry(class).or_insert(0) += k;
        }
    }
    println!(
        "{} of {} schedules failed (seeds {first}..{last}, {n} each{}), by the class of the first failure:",
        total.values().sum::<usize>(),
        n as u64 * (last - first + 1),
        if journal { ", group log on" } else { "" }
    );
    for (class, k) in total {
        println!("{k:>7}  {class}");
    }
    ExitCode::SUCCESS
}

/// The schedule that resurrects the historical stall: a packet-loss
/// window covering the tail of the write phase, so a member misses the
/// *last* accepts of the run (an end-of-order gap — exactly the case
/// the pre-fix retransmission bound got wrong).
fn known_bug_schedule() -> FaultSchedule {
    FaultSchedule::new(vec![Injection {
        at_ms: 8_000,
        dur_ms: 5_000,
        kind: FaultKind::Degrade {
            loss_pm: 300,
            dup_pm: 0,
            jitter_pm: 0,
        },
    }])
}

fn cmd_ci_smoke() -> ExitCode {
    // 0. A fault-free run must pass AND actually do work — a clean
    //    verdict over a vacuous workload proves nothing.
    let clean = ScenarioParams::small(0xC1);
    let baseline = run_scenario(&clean, &FaultSchedule::none(), RunMode::Fast);
    if baseline.failed() || baseline.acked_writes == 0 {
        eprintln!("ci-smoke: fault-free baseline bad: {}", baseline.summary());
        return ExitCode::FAILURE;
    }
    println!(
        "ci-smoke: baseline ok ({} acked writes)",
        baseline.acked_writes
    );

    // 1. A tiny sweep over the healthy service must come back clean.
    let report = sweep(&clean, 2, 0xC1);
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("ci-smoke: unexpected failure: {}", f.report.summary());
            eprintln!("  schedule:\n{}", f.minimal);
        }
        return ExitCode::FAILURE;
    }
    println!(
        "ci-smoke: clean sweep ok ({} schedules)",
        report.schedules_run
    );

    // 1b. The group log: the same sweep journaled (commits are journal
    //     appends, table writeback races the faults in the background
    //     checkpointer), plus the deterministic checkpoint-phase
    //     schedule — crash windows bracketing the checkpointer's ticks,
    //     where the journal is at high water and the drain half done.
    let mut journaled = clean.clone();
    journaled.journal = true;
    let report = sweep(&journaled, 2, 0xC1);
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!(
                "ci-smoke: unexpected failure with the group log on: {}",
                f.report.summary()
            );
            eprintln!("  schedule:\n{}", f.minimal);
        }
        return ExitCode::FAILURE;
    }
    // 250 ms is `StorageKind::journal()`'s checkpoint interval — the tick
    // the schedule's windows are keyed to.
    let ckpt_schedule = FaultSchedule::checkpoint_phase(3, 250, WRITE_START_MS);
    let ckpt = run_scenario(&journaled, &ckpt_schedule, RunMode::Record);
    if ckpt.failed() || ckpt.acked_writes == 0 {
        eprintln!(
            "ci-smoke: checkpoint-phase schedule failed journaled: {}",
            ckpt.summary()
        );
        eprintln!("  schedule:\n{ckpt_schedule}");
        return ExitCode::FAILURE;
    }
    // The `.amrx` bundle must carry the journal flag: a repro of a
    // journaled failure replayed without the journal is a different
    // program.
    let bundle = ReproBundle {
        params: journaled.clone(),
        schedule: ckpt_schedule.clone(),
        trace: ckpt.trace.clone().expect("recorded run must yield a trace"),
    };
    match ReproBundle::from_bytes(&bundle.encode()) {
        Ok(rt) if rt.params == journaled && rt.schedule == ckpt_schedule => {}
        Ok(_) => {
            eprintln!("ci-smoke: journaled .amrx bundle round-trip changed params/schedule");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("ci-smoke: journaled .amrx bundle did not re-parse: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "ci-smoke: journaled sweep + checkpoint-phase schedule ok \
         ({} schedules, {} acked writes through the crash windows, bundle round-trips)",
        report.schedules_run, ckpt.acked_writes
    );

    // 2. The seeded historical bug must be found, shrunk, and replayed.
    //    The stall needs the loss draws to land on the *final* sequenced
    //    op (and the window must not trip the failure detector, whose
    //    recovery pass would state-transfer the stalled member back) —
    //    a rare tail, so the search scans the seed space with the
    //    known-bug schedule until a run trips it, skipping seeds whose
    //    failure the fixed service shares. Each run is a few
    //    milliseconds of host time; the scan is deterministic.
    let schedule = known_bug_schedule();
    let Some((buggy, report)) = find_seeded_bug(&schedule, 0..64) else {
        eprintln!("ci-smoke: seeded historical bug was NOT found by the seed scan");
        return ExitCode::FAILURE;
    };
    println!(
        "ci-smoke: seeded bug found at scenario seed {}: {}",
        buggy.seed,
        report.summary()
    );
    let minimal = shrink(&buggy, &schedule);
    if minimal.len() > schedule.len() {
        eprintln!("ci-smoke: shrinker grew the schedule");
        return ExitCode::FAILURE;
    }
    println!(
        "ci-smoke: shrunk to {} injection(s):\n{}",
        minimal.len(),
        minimal
    );
    let (recorded, replay_ok) = record_and_verify(&buggy, &minimal);
    if !recorded.failed() {
        eprintln!("ci-smoke: shrunk schedule no longer fails under recording");
        return ExitCode::FAILURE;
    }
    if !replay_ok {
        eprintln!("ci-smoke: replay of the recorded failure diverged");
        return ExitCode::FAILURE;
    }
    let steps = recorded.trace.as_ref().map_or(0, |t| t.steps.len());
    println!("ci-smoke: failure recorded ({steps} trace steps) and replay-verified");

    // 3. The same schedule over the FIXED service must pass (the bug is
    //    in the knob, not the product).
    let mut fixed = buggy.clone();
    fixed.buggy_retrans_bound = false;
    if run_scenario(&fixed, &minimal, RunMode::Fast).failed() {
        eprintln!("ci-smoke: minimal schedule fails even without the seeded bug");
        return ExitCode::FAILURE;
    }
    println!("ci-smoke: fixed service survives the same schedule; all checks passed");
    ExitCode::SUCCESS
}

/// `probe --seeds N [--fixed]`: how often does the known-bug schedule
/// trip the seeded historical bug across scenario seeds? (A calibration
/// aid for the ci-smoke gate, not part of CI itself.)
fn cmd_probe(args: &[String]) -> ExitCode {
    let n = opt_u64(args, "--seeds", 20);
    let fixed = flag(args, "--fixed");
    let loss = opt_u64(args, "--loss", 300).min(1000) as u16;
    let trace_out = opt_str(args, "--trace");
    let mut schedule = known_bug_schedule();
    if let FaultKind::Degrade { loss_pm, .. } = &mut schedule.injections[0].kind {
        *loss_pm = loss;
    }
    let mut hits = 0;
    for seed in 0..n {
        let mut p = ScenarioParams::small(seed);
        p.buggy_retrans_bound = !fixed;
        // Tracing is zero-perturbation, so instrumenting only the first
        // seed changes nothing about the sweep's verdicts; one faulted
        // run's span tree is what a human wants to open, not N of them.
        p.telemetry = trace_out.is_some() && seed == 0;
        let r = run_scenario(&p, &schedule, RunMode::Fast);
        if let (Some(path), Some(json)) = (trace_out, &r.chrome_trace) {
            let summary = match amoeba_telemetry::export::validate_chrome_trace(json) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("probe: invalid chrome trace: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("probe: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "seed {seed}: wrote {path} ({} events, {} slices, {} flow pairs, {} tracks)",
                summary.events, summary.slices, summary.flow_pairs, summary.tracks
            );
        }
        if r.failed() {
            hits += 1;
            println!("seed {seed}: FAIL — {}", r.summary());
        } else {
            println!("seed {seed}: ok ({} acked writes)", r.acked_writes);
        }
    }
    println!("{hits}/{n} seeds failed");
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: explore replay <bundle.amrx>");
        return ExitCode::from(2);
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("replay: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let bundle = match ReproBundle::from_bytes(&bytes) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("replay: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} trace steps over {} machines, schedule:\n{}",
        bundle.trace.steps.len(),
        bundle.params.machines(),
        bundle.schedule
    );
    let report = run_scenario(
        &bundle.params,
        &bundle.schedule,
        RunMode::Replay(bundle.trace),
    );
    if report
        .panic
        .as_deref()
        .is_some_and(|p| p.contains("replay divergence"))
    {
        eprintln!("replay DIVERGED: {}", report.summary());
        return ExitCode::FAILURE;
    }
    println!("replay verified deterministically: {}", report.summary());
    ExitCode::SUCCESS
}
