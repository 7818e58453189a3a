//! The RPC transport, run by the umbrella's suite: every end-to-end test
//! of the `amoeba-rpc` crate (compiled from its own file, so the two
//! cannot drift apart), plus the liveness guard on the client's enquiry
//! over a whole deployment.

#[path = "../crates/rpc/tests/rpc_behavior.rs"]
mod rpc_behavior;

use amoeba_explore::scenario::{run_scenario, RunMode, ScenarioParams};
use amoeba_explore::schedule::{FaultKind, FaultSchedule, Injection};

/// Mirrors `crates/explore/tests/explore_search.rs`: a faulted run at the
/// seed and schedule where a replica was first seen to stall with its
/// reads held in `read_barrier` must still finish clean, because an RPC
/// attempt ends two reply timeouts after its send whatever `Working`
/// answers its enquiries get.
#[test]
fn fixed_service_finishes_the_known_bug_schedule_at_seed_3() {
    let degrade = |at_ms, dur_ms, loss_pm, dup_pm| Injection {
        at_ms,
        dur_ms,
        kind: FaultKind::Degrade {
            loss_pm,
            dup_pm,
            jitter_pm: 0,
        },
    };
    let schedule = FaultSchedule::new(vec![
        degrade(5_500, 800, 0, 200),
        degrade(8_000, 5_000, 300, 0),
    ]);
    let report = run_scenario(&ScenarioParams::small(3), &schedule, RunMode::Fast);
    assert!(!report.failed(), "{}", report.summary());
    assert!(report.acked_writes > 0, "workload must not be vacuous");
}
