//! Causal tracing and metrics over **simulated** time.
//!
//! The directory service runs inside a deterministic discrete-event
//! simulation (`amoeba-sim`), which changes what "observability" means:
//!
//! - **Timestamps are simulated time.** Host wall-clock time measures the
//!   simulator, not the system; every span and histogram here is recorded
//!   against [`SimTime`], so a trace answers "where did this write's
//!   124.9 ms go?" in the modeled system's own clock — and is bit-identical
//!   across runs of the same seed.
//! - **Observation must not perturb the simulation.** The collector obeys
//!   the same discipline as the PR 7 decision-trace recorder:
//!   1. trace contexts ride on packets as *out-of-band metadata* (the
//!      `Packet::trace` field), never inside encoded payloads, so wire-byte
//!      accounting, fragmentation and contention charging are unchanged;
//!   2. trace/span ids come from the collector's **own** SplitMix64 stream
//!      (seeded from the simulation seed), never from the sim RNG, so the
//!      kernel's random sequence is untouched;
//!   3. recording never sleeps, schedules, or draws simulated randomness —
//!      it only appends to buffers in a `RefCell`.
//!
//!   With the collector disabled every record call is a no-op on a `None`
//!   handle, and a test asserts the simulated clock is bit-identical
//!   between an instrumented and an uninstrumented run.
//!
//! # Context propagation invariants
//!
//! A context is a `(trace_id, span_id)` pair ([`TraceCtx`]); `trace == 0`
//! means "no context" and propagates as silence. The invariants each layer
//! maintains:
//!
//! - The **client** allocates a fresh root span per directory operation and
//!   passes its ctx down through `DirClient` → RPC `trans`.
//! - **RPC** carries the ctx on the request packet; the server-side
//!   `getreq` surfaces it on `IncomingRequest`, and `putrep` echoes it onto
//!   the reply so client-side completion can be attributed.
//! - The **group layer** tags each application message with the submitter's
//!   ctx (`SendReq`/`BbData` → packet metadata keyed by msgid). The
//!   sequencer opens an ordering span *parented to the submitter's ctx*
//!   when it assigns a sequence number, and the ordering ctx travels with
//!   `Accept`/`AcceptBatch` items (keyed by seqno) — including
//!   retransmissions — so every member parents its delivery to the same
//!   ordering span.
//! - **RSM** parents each `apply` span to the ordering ctx delivered with
//!   the group message; effects triggered by an apply (lease revocation
//!   callbacks) carry the server handler's ctx onward.
//!
//! The result: one client write yields a single *connected* span tree
//! (every span's parent exists; exactly one root) spanning client,
//! sequencer, replica, and lease-holder machines.
//!
//! # Exporter
//!
//! [`Telemetry::export_chrome_json`] emits Chrome trace-event JSON (the
//! Perfetto-compatible `traceEvents` array): one process ("track") per
//! machine named via metadata events, `ph:"X"` complete slices with µs
//! timestamps, and `ph:"s"`/`ph:"f"` flow events bound to tiny
//! `net:tx`/`net:rx` slices along every traced packet edge. Load the file
//! in `ui.perfetto.dev` or `chrome://tracing`. [`validate_chrome_trace`]
//! re-parses an export with the in-crate JSON parser (`json` module) and
//! checks the required fields, so CI can prove the exporter never bit-rots.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use amoeba_sim::{IdMap, IdSet, SimHandle, SimTime};

pub mod export;
pub mod hist;
pub mod json;

pub use export::validate_chrome_trace;
pub use hist::{Hist, MetricsSnapshot};

/// A causal trace context: which request (`trace`) and which operation
/// within it (`span`). `trace == 0` means "no context"; ids are never 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    pub trace: u64,
    pub span: u64,
}

impl TraceCtx {
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    pub fn is_none(&self) -> bool {
        self.trace == 0
    }

    pub fn is_some(&self) -> bool {
        self.trace != 0
    }
}

/// The ambient trace context of the calling simulated process
/// (`TraceCtx::NONE` when none is set): "the context of the operation
/// this process is inside". Layers that cannot practically thread a
/// `TraceCtx` argument (the RPC client under a deep client API) read it
/// here. It lives in the process's [`amoeba_sim::ambient`] words, which
/// the simulator saves and restores at every switch, so each process
/// reads back its own, and a new process starts with none.
pub fn current_ctx() -> TraceCtx {
    let [trace, span] = amoeba_sim::ambient();
    TraceCtx { trace, span }
}

/// Sets the ambient trace context; returns the previous one so callers
/// can restore it when their scope ends (do so — server loops are
/// long-lived processes and a leaked context mis-parents later requests).
pub fn set_current_ctx(ctx: TraceCtx) -> TraceCtx {
    let [trace, span] = amoeba_sim::set_ambient([ctx.trace, ctx.span]);
    TraceCtx { trace, span }
}

/// One recorded span. `end == None` while the span is open (an export
/// renders open spans with zero duration rather than dropping them).
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub trace: u64,
    pub span: u64,
    /// Parent span id within the same trace; 0 for a root.
    pub parent: u64,
    pub name: String,
    /// Machine id — one exporter track per machine.
    pub machine: u64,
    pub start: SimTime,
    pub end: Option<SimTime>,
}

/// One traced packet edge (send → deliver), rendered as a flow arrow.
#[derive(Debug, Clone)]
pub struct FlowRec {
    pub trace: u64,
    pub span: u64,
    pub src_machine: u64,
    pub sent_at: SimTime,
    pub dst_machine: u64,
    pub delivered_at: SimTime,
}

struct Inner {
    rng: u64,
    /// Trace sampling: record spans/flows for every Nth root operation
    /// only (`0` = record all). Contexts still propagate for every
    /// trace, so sampling never perturbs what the traced system does —
    /// it only bounds collector memory on multi-minute runs.
    sample_every: u64,
    /// Roots opened so far (the sampling counter).
    root_count: u64,
    /// Trace ids selected by the sampler; spans/flows of other traces
    /// are dropped at record time.
    sampled: IdSet<u64>,
    spans: Vec<SpanRec>,
    open: IdMap<u64, usize>,
    flows: Vec<FlowRec>,
    tracks: Vec<(u64, String)>,
    metrics: hist::Registry,
}

impl Inner {
    fn keeps(&self, trace: u64) -> bool {
        self.sample_every == 0 || self.sampled.contains(&trace)
    }
}

struct Collector {
    sim: SimHandle,
    inner: RefCell<Inner>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cheap-clone handle to the per-simulation collector. A disabled handle
/// ([`Telemetry::disabled`]) makes every record call a near-free no-op.
#[derive(Clone)]
pub struct Telemetry(Option<Rc<Collector>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// Creates a collector for this simulation and installs it in the
    /// kernel's user-data slot, where [`Telemetry::from_handle`] finds it.
    pub fn install(sim: &SimHandle) -> Telemetry {
        Self::install_with(sim, 0)
    }

    /// [`Telemetry::install`] with **trace sampling**: spans and flows
    /// are recorded for one in `every` root operations (the first, the
    /// `every+1`-th, …) and dropped for the rest, while histograms
    /// still fill for *all* operations: a multi-minute run keeps
    /// bounded span memory (full tracing grows with run length) yet
    /// still yields complete, connected trees for the sampled
    /// operations. `every` of 0 or 1 records everything.
    pub fn install_sampled(sim: &SimHandle, every: u64) -> Telemetry {
        Self::install_with(sim, if every <= 1 { 0 } else { every })
    }

    fn install_with(sim: &SimHandle, sample_every: u64) -> Telemetry {
        let collector = Rc::new(Collector {
            sim: sim.clone(),
            inner: RefCell::new(Inner {
                rng: sim.seed() ^ 0xA0EB_A7E1_EC7A_CE00,
                sample_every,
                root_count: 0,
                sampled: IdSet::default(),
                spans: Vec::new(),
                open: IdMap::default(),
                flows: Vec::new(),
                tracks: Vec::new(),
                metrics: hist::Registry::default(),
            }),
        });
        sim.set_user_data(collector.clone() as Rc<dyn Any>);
        Telemetry(Some(collector))
    }

    /// The handle installed on this simulation, or a disabled handle if
    /// [`Telemetry::install`] was never called. Every component already
    /// holds a `SimHandle`, so no constructor needs a telemetry parameter.
    pub fn from_handle(sim: &SimHandle) -> Telemetry {
        match sim.user_data() {
            Some(data) => match data.downcast::<Collector>() {
                Ok(c) => Telemetry(Some(c)),
                Err(_) => Telemetry(None),
            },
            None => Telemetry(None),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Names the exporter track for a machine (`process_name` metadata).
    pub fn name_machine(&self, machine: u64, name: &str) {
        if let Some(c) = &self.0 {
            let mut inner = c.inner.borrow_mut();
            if !inner.tracks.iter().any(|(m, _)| *m == machine) {
                inner.tracks.push((machine, name.to_string()));
            }
        }
    }

    /// Opens a root span (a new trace) on `machine` at the current
    /// simulated time. Returns [`TraceCtx::NONE`] when disabled.
    pub fn begin_root(&self, name: &str, machine: u64) -> TraceCtx {
        self.begin(name, machine, None)
    }

    /// Opens a child span of `parent` on `machine`. Silence propagates:
    /// a `NONE` parent (or a disabled handle) yields `NONE`.
    pub fn begin_child(&self, name: &str, machine: u64, parent: TraceCtx) -> TraceCtx {
        if parent.is_none() {
            return TraceCtx::NONE;
        }
        self.begin(name, machine, Some(parent))
    }

    fn begin(&self, name: &str, machine: u64, parent: Option<TraceCtx>) -> TraceCtx {
        let Some(c) = &self.0 else {
            return TraceCtx::NONE;
        };
        let now = c.sim.now();
        let mut inner = c.inner.borrow_mut();
        let span = Self::next_id(&mut inner.rng);
        let (trace, parent_span) = match parent {
            Some(p) => (p.trace, p.span),
            None => {
                let trace = Self::next_id(&mut inner.rng);
                // The sampler decides per root — per *operation* — so a
                // kept trace is recorded whole (every child span, every
                // flow) and a dropped one vanishes entirely.
                if inner.sample_every > 0 {
                    if inner.root_count % inner.sample_every == 0 {
                        inner.sampled.insert(trace);
                    }
                    inner.root_count += 1;
                }
                (trace, 0)
            }
        };
        if !inner.keeps(trace) {
            return TraceCtx { trace, span };
        }
        let idx = inner.spans.len();
        inner.spans.push(SpanRec {
            trace,
            span,
            parent: parent_span,
            name: name.to_string(),
            machine,
            start: now,
            end: None,
        });
        inner.open.insert(span, idx);
        TraceCtx { trace, span }
    }

    fn next_id(rng: &mut u64) -> u64 {
        loop {
            let id = splitmix64(rng);
            if id != 0 {
                return id;
            }
        }
    }

    /// Closes `ctx`'s span at the current simulated time.
    pub fn end(&self, ctx: TraceCtx) {
        if let Some(c) = &self.0 {
            if ctx.is_some() {
                self.end_at(ctx, c.sim.now());
            }
        }
    }

    /// Closes `ctx`'s span at an explicit simulated time.
    pub fn end_at(&self, ctx: TraceCtx, at: SimTime) {
        let Some(c) = &self.0 else { return };
        if ctx.is_none() {
            return;
        }
        let mut inner = c.inner.borrow_mut();
        if let Some(idx) = inner.open.remove(&ctx.span) {
            inner.spans[idx].end = Some(at);
        }
    }

    /// Records a traced packet edge; the network layer calls this once per
    /// delivered copy with both endpoints' timestamps.
    pub fn flow(
        &self,
        ctx: TraceCtx,
        src_machine: u64,
        sent_at: SimTime,
        dst_machine: u64,
        delivered_at: SimTime,
    ) {
        let Some(c) = &self.0 else { return };
        if ctx.is_none() {
            return;
        }
        let mut inner = c.inner.borrow_mut();
        if !inner.keeps(ctx.trace) {
            return;
        }
        inner.flows.push(FlowRec {
            trace: ctx.trace,
            span: ctx.span,
            src_machine,
            sent_at,
            dst_machine,
            delivered_at,
        });
    }

    /// Records the simulated duration since `start` into `family`.
    pub fn observe_since(&self, family: &str, start: SimTime) {
        if let Some(c) = &self.0 {
            let dur = c.sim.now().saturating_since(start);
            c.inner
                .borrow_mut()
                .metrics
                .observe(family, dur.as_micros() as u64);
        }
    }

    /// Bumps a named counter.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(c) = &self.0 {
            c.inner.borrow_mut().metrics.count(name, n);
        }
    }

    /// Sets a named gauge to its latest value.
    pub fn gauge(&self, name: &str, v: i64) {
        if let Some(c) = &self.0 {
            c.inner.borrow_mut().metrics.gauge(name, v);
        }
    }

    /// A snapshot of all recorded spans (tests and report plumbing).
    pub fn spans(&self) -> Vec<SpanRec> {
        match &self.0 {
            Some(c) => c.inner.borrow_mut().spans.clone(),
            None => Vec::new(),
        }
    }

    /// A snapshot of all recorded flow edges.
    pub fn flows(&self) -> Vec<FlowRec> {
        match &self.0 {
            Some(c) => c.inner.borrow_mut().flows.clone(),
            None => Vec::new(),
        }
    }

    /// A snapshot of the metrics registry (histograms + counters + gauges).
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(c) => c.inner.borrow_mut().metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Serializes everything recorded so far as Chrome trace-event JSON.
    pub fn export_chrome_json(&self) -> String {
        match &self.0 {
            Some(c) => {
                let inner = c.inner.borrow();
                export::chrome_json(&inner.spans, &inner.flows, &inner.tracks)
            }
            None => String::from("{\"traceEvents\":[]}\n"),
        }
    }
}

/// Connectivity statistics for the span tree of one trace: `(roots,
/// orphans, distinct machines)`. A *connected* tree has `roots == 1` and
/// `orphans == 0`; an orphan is a non-root span whose parent id does not
/// appear in the trace.
pub fn span_tree_stats(spans: &[SpanRec], trace: u64) -> (usize, usize, usize) {
    let in_trace: Vec<&SpanRec> = spans.iter().filter(|s| s.trace == trace).collect();
    let ids: IdSet<u64> = in_trace.iter().map(|s| s.span).collect();
    let mut roots = 0;
    let mut orphans = 0;
    let mut machines = IdSet::default();
    for s in &in_trace {
        machines.insert(s.machine);
        if s.parent == 0 {
            roots += 1;
        } else if !ids.contains(&s.parent) {
            orphans += 1;
        }
    }
    (roots, orphans, machines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_sim::Simulation;

    #[test]
    fn disabled_handle_is_silent() {
        let tele = Telemetry::disabled();
        let ctx = tele.begin_root("op", 1);
        assert!(ctx.is_none());
        tele.end(ctx);
        tele.observe_since("op", SimTime::ZERO);
        assert!(tele.spans().is_empty());
        assert!(tele.metrics().hists.is_empty());
    }

    #[test]
    fn install_then_from_handle_shares_collector() {
        let sim = Simulation::new(7);
        let tele = Telemetry::install(&sim.handle());
        let again = Telemetry::from_handle(&sim.handle());
        let ctx = tele.begin_root("op", 3);
        assert!(ctx.is_some());
        again.end(ctx);
        let spans = again.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "op");
        assert!(spans[0].end.is_some());
    }

    #[test]
    fn child_of_none_is_none_and_ids_are_deterministic() {
        let sim = Simulation::new(9);
        let tele = Telemetry::install(&sim.handle());
        assert!(tele.begin_child("x", 0, TraceCtx::NONE).is_none());

        let sim2 = Simulation::new(9);
        let tele2 = Telemetry::install(&sim2.handle());
        let a = tele.begin_root("op", 1);
        let b = tele2.begin_root("op", 1);
        assert_eq!((a.trace, a.span), (b.trace, b.span));
    }

    #[test]
    fn sampling_keeps_every_nth_root_whole_and_drops_the_rest() {
        let sim = Simulation::new(5);
        let tele = Telemetry::install_sampled(&sim.handle(), 3);
        let mut kept = Vec::new();
        for i in 0..7 {
            let root = tele.begin_root("op", 1);
            assert!(root.is_some(), "contexts propagate for every trace");
            let kid = tele.begin_child("kid", 2, root);
            tele.flow(kid, 1, sim.handle().now(), 2, sim.handle().now());
            tele.end(kid);
            tele.end(root);
            tele.observe_since("op", SimTime::ZERO);
            if i % 3 == 0 {
                kept.push(root.trace);
            }
        }
        let spans = tele.spans();
        // Roots 0, 3, 6 kept — two spans each; the other four vanish.
        assert_eq!(spans.len(), 6);
        for trace in kept {
            let (roots, orphans, _) = span_tree_stats(&spans, trace);
            assert_eq!((roots, orphans), (1, 0), "sampled trees stay connected");
        }
        // Flows follow the same verdict as their trace's spans.
        assert_eq!(tele.flows().len(), 3);
        // Histograms fill for every operation, sampled or not.
        let snap = tele.metrics();
        assert_eq!(snap.hists.get("op").unwrap().count, 7);
    }

    #[test]
    fn sampling_of_one_records_everything() {
        let sim = Simulation::new(5);
        let tele = Telemetry::install_sampled(&sim.handle(), 1);
        for _ in 0..4 {
            let root = tele.begin_root("op", 1);
            tele.end(root);
        }
        assert_eq!(tele.spans().len(), 4);
    }

    #[test]
    fn span_tree_stats_counts_roots_and_orphans() {
        let sim = Simulation::new(1);
        let tele = Telemetry::install(&sim.handle());
        let root = tele.begin_root("root", 1);
        let kid = tele.begin_child("kid", 2, root);
        let _grandkid = tele.begin_child("grandkid", 3, kid);
        let (roots, orphans, machines) = span_tree_stats(&tele.spans(), root.trace);
        assert_eq!((roots, orphans, machines), (1, 0, 3));
    }
}
