//! `amoeba-explore`: deterministic record/replay and fault-schedule
//! search over the simulation kernel.
//!
//! The workspace's simulation kernel (`amoeba-sim`) is deterministic by
//! construction: one green thread runs at a time, events are ordered by
//! `(time, seq)`, and all randomness flows from one seeded generator per
//! process. This crate turns that property into three tools:
//!
//! 1. **Record** ([`amoeba_sim::Simulation::recording`]): every
//!    nondeterministic-looking decision the kernel makes — which event
//!    is popped, which process is resumed and why, how each process
//!    yields, every process spawn, and every externally injected fault —
//!    is appended to a compact [`amoeba_sim::SimTrace`]. Two runs of the
//!    same program from the same seed produce byte-identical traces.
//!
//! 2. **Replay** ([`amoeba_sim::Simulation::replaying`]): replay is
//!    *verify mode*, not puppet mode. The kernel re-executes the same
//!    program from the trace's seed and cross-checks each decision it
//!    makes against the recorded step, panicking with `replay
//!    divergence at step N` at the first departure. A clean replay is a
//!    machine-checked proof that the recorded failure is reproducible.
//!
//! 3. **Explore** ([`search`]): a driver that sweeps randomized
//!    [fault schedules](schedule::FaultSchedule) — crashes, partitions,
//!    loss/duplication/jitter windows at searched logical times — over
//!    whole simulated deployments (up to ≥50 machines spread along
//!    multi-hop router chains), checks replicated-state invariants
//!    after quiescence, and [shrinks](search::shrink) any failing
//!    schedule (dropping and advancing injections while the failure
//!    still reproduces) before emitting the minimal schedule plus its
//!    recorded trace as a [repro bundle](search::ReproBundle).
//!
//! ## Determinism contract
//!
//! A scenario run consults **nothing outside the simulation** but its
//! own parameters: the seed, the [`scenario::ScenarioParams`], and the
//! fault schedule. Wall-clock time, host randomness, thread scheduling,
//! and iteration order of hash containers must never influence a
//! decision that reaches the kernel — the workspace's hash-order audit
//! (sorted emission at every order-sensitive site) plus the per-yield
//! RNG digest in the trace enforce this: any leak shows up as a replay
//! divergence or a trace mismatch between same-seed runs.
//!
//! ## Trace format
//!
//! See [`amoeba_sim::SimTrace`]: `"AMTR"` magic, version, seed, then
//! fixed 33-byte steps (`time_ns`, tag, three operands). Fault steps
//! ([`amoeba_sim::fault_codes`]) record crash/revive/partition/
//! parameter injections so a trace is self-describing about *what was
//! done to* the run as well as what the kernel decided.

#![warn(missing_docs)]

pub mod scenario;
pub mod schedule;
pub mod search;

pub use scenario::{run_scenario, RunMode, ScenarioParams, ScenarioReport};
pub use schedule::{FaultKind, FaultSchedule, Injection};
pub use search::{shrink, sweep, tally, ReproBundle, SweepReport};
