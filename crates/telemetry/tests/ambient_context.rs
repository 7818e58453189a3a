//! The ambient trace context belongs to a simulated process: processes
//! that interleave see only their own.
//!
//! The umbrella crate's `tests/sim_kernel.rs` compiles this file too.

use std::time::Duration;

use amoeba_sim::Simulation;
use amoeba_telemetry::{current_ctx, set_current_ctx, TraceCtx};

/// Two processes set and read their context around sleeps that switch
/// between them: each reads back its own, a new one starts with none,
/// and the driver's survives the run.
#[test]
fn each_process_reads_back_its_own_ambient_context() {
    let mut sim = Simulation::new(3);
    let outs = [1, 2u64].map(|p| {
        sim.spawn(&format!("p{p}"), move |ctx| {
            let mut seen = vec![current_ctx()];
            for round in 1..=5 {
                set_current_ctx(TraceCtx {
                    trace: p,
                    span: round,
                });
                ctx.sleep(Duration::from_millis(p));
                seen.push(current_ctx());
            }
            seen
        })
    });
    let driver = TraceCtx { trace: 9, span: 9 };
    let before = set_current_ctx(driver);
    sim.run();
    assert_eq!(set_current_ctx(before), driver);
    for (p, out) in [1, 2u64].into_iter().zip(outs) {
        let expected: Vec<_> = std::iter::once(TraceCtx::NONE)
            .chain((1..=5).map(|round| TraceCtx {
                trace: p,
                span: round,
            }))
            .collect();
        assert_eq!(out.take(), Some(expected), "process {p}");
    }
}
