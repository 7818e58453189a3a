//! The causal-tracing layer's end-to-end guarantees, as seen through the
//! umbrella crate (tier-1 runs only this package): compiled in whole
//! from `crates/bench/tests/telemetry.rs`.

#[path = "../crates/bench/tests/telemetry.rs"]
mod telemetry;
