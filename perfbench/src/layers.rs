//! The per-layer table: counter deltas from the crates' public stats
//! getters, and self times from the spans `amoeba-telemetry` records.
//! Nothing inside the product crates is edited; layers are the crates.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use amoeba_dir_core::{Capability, DirOp, Rights};
use amoeba_flip::{Payload, Port};
use amoeba_group::{AcceptBody, GroupMsg, MemberId};
use amoeba_sim::SimTime;
use amoeba_telemetry::{FlowRec, SpanRec};

use crate::host::Usage;
use crate::stats::median_f64;
use crate::workload::{Counts, Deployment};

/// The state of all counters at one instant between two steps.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub counts: Counts,
    /// Nanoseconds each segment's wire has been busy.
    pub wire_busy: Vec<u64>,
    pub usage: Usage,
    pub now: SimTime,
}

impl Snapshot {
    pub fn take(dep: &Deployment) -> Snapshot {
        let net = dep.cluster.net.stats();
        let mut counts = dep.server_counters();
        counts.extend([
            ("sim.events", dep.run_stats.events),
            ("flip.packets", net.packets_sent),
            ("flip.bytes", net.bytes_sent),
            ("flip.multicast", net.multicast_sent),
            ("flip.forwarded", net.packets_forwarded),
            ("flip.mcast_pruned", net.mcast_pruned),
            (
                "flip.dropped",
                net.dropped_loss
                    + net.dropped_partition
                    + net.dropped_down
                    + net.dropped_no_listener
                    + net.dropped_ttl,
            ),
        ]);
        let mut add = |name, n| *counts.entry(name).or_insert(0) += n;
        for c in &dep.cluster.columns {
            let d = c.vdisk.stats();
            add("disk.reads", d.reads);
            add("disk.writes", d.writes);
            add("disk.blocks", d.blocks);
            add("disk.seeks", d.seeks);
            add("disk.nvram_appends", c.nvram.stats().appends);
        }
        for c in dep.clients.iter().filter_map(|c| c.cache_stats()) {
            add("cache.hits", c.hits);
            add("cache.misses", c.misses);
            add("cache.renewals", c.renewals);
            add("cache.stale_rejects", c.stale_rejects);
            add("cache.invalidations", c.invalidations);
        }
        Snapshot {
            counts,
            wire_busy: net.segments.iter().map(|s| s.wire_busy_nanos).collect(),
            usage: Usage::now(),
            now: dep.sim.now(),
        }
    }

    /// How far counter `name` advanced since `earlier`.
    pub fn delta(&self, earlier: &Snapshot, name: &str) -> f64 {
        let get = |s: &Snapshot| s.counts.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(earlier)) as f64
    }

    /// The share of lookups since `earlier` that the clients' caches
    /// served (0 without a cache).
    pub fn cache_hit_rate(&self, earlier: &Snapshot) -> f64 {
        let d = |name| self.delta(earlier, name);
        let lookups =
            d("cache.hits") + d("cache.misses") + d("cache.renewals") + d("cache.stale_rejects");
        if lookups > 0.0 {
            d("cache.hits") / lookups
        } else {
            0.0
        }
    }

    /// The share of the window the busiest segment's wire was busy.
    pub fn wire_busy_share(&self, earlier: &Snapshot) -> f64 {
        let window = (self.now - earlier.now).as_nanos() as f64;
        let busiest = self
            .wire_busy
            .iter()
            .zip(&earlier.wire_busy)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or(0);
        busiest as f64 / window
    }
}

/// The rows a client op's latency is split over, as metric suffixes. A
/// span belongs to the layer that emits it, read off its name's prefix:
///
/// - `rpc_ms`: `cli.*` self time — the client stub, the wire both ways,
///   and any RPC-level resend: all that happens outside a handler;
/// - `core_ms`: `srv.handle` self time — the directory server's own work
///   and its wait for the local replica to publish;
/// - `group_ms`: `grp.order` — sequencing until the resilience degree;
/// - `rsm_ms`: `rsm.apply` / `rsm.flush` on the replica that answers;
/// - `other_ms`: any other span. `cache.inval` lands here with nothing
///   to show: the listener's span is instantaneous, so what
///   revoke-before-ack costs a write is inside the handler's wait.
pub const LAYERS: [&str; 5] = ["rpc_ms", "core_ms", "group_ms", "rsm_ms", "other_ms"];
pub const CORE: usize = 1;
const RSM: usize = 3;

/// The [`LAYERS`] row of a span.
fn layer_of(span_name: &str) -> usize {
    match span_name.split('.').next() {
        Some("cli") => 0,
        Some("srv") => CORE,
        Some("grp") => 2,
        Some("rsm") => RSM,
        _ => 4,
    }
}

/// Splits one op's latency over the layers: every instant of the root
/// span goes to the deepest span open at that instant, so a span's share
/// is its duration minus the union of its children's intervals, and the
/// shares sum to the root's duration by construction. Of spans that run
/// in parallel on several replicas only those on a machine that handled
/// the request (`srv.handle`) are on the path. Returns nanoseconds per
/// [`LAYERS`] row, or `None` if the trace has no closed root.
pub fn attribute(trace: &[&SpanRec]) -> Option<[u64; LAYERS.len()]> {
    let root = trace.iter().find(|s| s.parent == 0)?;
    let (lo, hi) = (root.start.as_nanos(), root.end?.as_nanos());
    let by_id: HashMap<u64, &SpanRec> = trace.iter().map(|s| (s.span, *s)).collect();
    let depth = |s: &SpanRec| {
        let mut d = 0usize;
        let mut cur = s;
        while let Some(parent) = by_id.get(&cur.parent) {
            d += 1;
            cur = *parent;
            if d > trace.len() {
                break; // malformed parent links must not hang the run
            }
        }
        d
    };
    let handled_on: Vec<u64> = trace
        .iter()
        .filter(|s| s.name == "srv.handle")
        .map(|s| s.machine)
        .collect();
    // (depth, start, end, layer), clipped to the root's interval.
    let mut open: Vec<(usize, u64, u64, usize)> = Vec::new();
    for s in trace {
        let layer = layer_of(&s.name);
        if layer == RSM && !handled_on.contains(&s.machine) {
            continue;
        }
        let start = s.start.as_nanos().clamp(lo, hi);
        let end = s.end.map_or(hi, |e| e.as_nanos()).clamp(lo, hi);
        if start < end || s.span == root.span {
            open.push((depth(s), start, end, layer));
        }
    }
    let mut cuts: Vec<u64> = open.iter().flat_map(|o| [o.1, o.2]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = [0u64; LAYERS.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (_, _, _, row) = open
            .iter()
            .filter(|o| o.1 <= a && b <= o.2)
            .max_by_key(|o| (o.0, std::cmp::Reverse(o.1)))
            .expect("the root covers every piece of its own interval");
        out[*row] += b - a;
    }
    Some(out)
}

/// What the traced pass adds to the counters.
#[derive(Debug, Default)]
pub struct SpanTable {
    /// Per op family (`update`, `lookup`): traced ops and nanoseconds
    /// per [`LAYERS`] row, summed over them.
    pub budget: BTreeMap<&'static str, (u64, [u64; LAYERS.len()])>,
    /// Mean duration in ms of every span of a name.
    pub mean_ms: BTreeMap<String, f64>,
    pub traced_ops: u64,
    pub spans: u64,
    pub handles: u64,
    /// Median packet flight (sent → delivered) in ms.
    pub hop_ms: f64,
}

fn family(root_name: &str) -> Option<&'static str> {
    match root_name {
        "cli.append_row" | "cli.delete_row" => Some("update"),
        "cli.lookup" => Some("lookup"),
        _ => None,
    }
}

impl SpanTable {
    /// Reads the spans of client ops that began and ended in
    /// `[from, to)`.
    pub fn build(spans: &[SpanRec], flows: &[FlowRec], from: SimTime, to: SimTime) -> SpanTable {
        let mut by_trace: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
        for s in spans {
            by_trace.entry(s.trace).or_default().push(s);
        }
        // Host-side map order must not leak into float sums.
        let mut traces: Vec<_> = by_trace.into_iter().collect();
        traces.sort_unstable_by_key(|(id, _)| *id);

        let mut t = SpanTable::default();
        let mut durations: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut kept = std::collections::HashSet::new();
        for (id, trace) in &traces {
            let Some(root) = trace.iter().find(|s| s.parent == 0) else {
                continue;
            };
            let (Some(fam), Some(end)) = (family(&root.name), root.end) else {
                continue;
            };
            if root.start < from || end >= to {
                continue;
            }
            let Some(shares) = attribute(trace) else {
                continue;
            };
            kept.insert(*id);
            let row = t.budget.entry(fam).or_insert((0, [0; LAYERS.len()]));
            row.0 += 1;
            for (acc, ns) in row.1.iter_mut().zip(shares) {
                *acc += ns;
            }
            t.traced_ops += 1;
            t.spans += trace.len() as u64;
            for s in trace {
                if s.name == "srv.handle" {
                    t.handles += 1;
                }
                if let Some(e) = s.end {
                    let d = durations.entry(s.name.clone()).or_insert((0, 0));
                    d.0 += 1;
                    d.1 += (e - s.start).as_nanos() as u64;
                }
            }
        }
        t.mean_ms = durations
            .into_iter()
            .map(|(name, (n, ns))| (name, ns as f64 / n as f64 / 1e6))
            .collect();
        let mut hops: Vec<f64> = flows
            .iter()
            .filter(|f| kept.contains(&f.trace))
            .map(|f| (f.delivered_at - f.sent_at).as_nanos() as f64 / 1e6)
            .collect();
        t.hop_ms = if hops.is_empty() {
            0.0
        } else {
            median_f64(&mut hops)
        };
        t
    }

    /// Mean self time in ms of `row` per traced op of `family`.
    pub fn budget_ms(&self, family: &str, row: usize) -> f64 {
        match self.budget.get(family) {
            Some((n, ns)) if *n > 0 => ns[row] as f64 / *n as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Mean duration in ms of the spans named `name` (0 if none).
    pub fn span_ms(&self, name: &str) -> f64 {
        self.mean_ms.get(name).copied().unwrap_or(0.0)
    }
}

/// Median over `batches` timings of `f`, in nanoseconds per call.
fn time_ns(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 2_000;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median_f64(&mut batches)
}

/// Host micro-timings of three public codecs on the hot path: the cost
/// a simulated packet pays on the host whatever the simulated clock says.
pub fn codec_ns() -> [(&'static str, f64); 3] {
    let cap = Capability::owner(Port::from_name("perfbench"), 7, 0x5EED);
    let op = DirOp::Append {
        object: 7,
        name: "w17-4242".to_owned(),
        cap,
        col_rights: vec![Rights::ALL, Rights::NONE],
    };
    let accept = GroupMsg::Accept {
        instance: 1,
        incarnation: 1,
        seq: 42,
        from: MemberId(1),
        from_tag: 0,
        msgid: 9,
        body: AcceptBody::Data(op.encode()),
    }
    .encode();
    let payload = Payload::new(vec![0xA5; 1024]);
    [
        (
            "core.dir_op_encode_ns",
            time_ns(|| {
                black_box(black_box(&op).encode());
            }),
        ),
        (
            "group.accept_decode_ns",
            time_ns(|| {
                black_box(GroupMsg::decode(black_box(&accept)).expect("round trip"));
            }),
        ),
        (
            "flip.payload_slice_ns",
            time_ns(|| {
                black_box(black_box(&payload).slice(16..512));
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, machine: u64, start: u64, end: u64) -> SpanRec {
        SpanRec {
            trace: 1,
            span: id,
            parent,
            name: name.to_owned(),
            machine,
            start: SimTime::from_nanos(start),
            end: Some(SimTime::from_nanos(end)),
        }
    }

    fn shares(spans: &[SpanRec]) -> [u64; LAYERS.len()] {
        attribute(&spans.iter().collect::<Vec<_>>()).expect("closed root")
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        // Two handler spans overlap over [30, 40): the union [10, 70)
        // is taken off the root once, not twice.
        let spans = [
            span(1, 0, "cli.append_row", 9, 0, 100),
            span(2, 1, "srv.handle", 1, 10, 40),
            span(3, 1, "srv.handle", 2, 30, 70),
            span(4, 2, "grp.order", 1, 15, 20),
        ];
        let s = shares(&spans);
        assert_eq!(s, [40, 55, 5, 0, 0]);
        assert_eq!(s.iter().sum::<u64>(), 100, "rows sum to the op's latency");
    }

    #[test]
    fn only_the_answering_replicas_apply_is_on_the_path() {
        // Three replicas apply in parallel; machine 1 handled the
        // request, so the applies on machines 2 and 3 are off the path.
        // The lock-service span outlives the op and is clipped to it.
        let spans = [
            span(1, 0, "cli.delete_row", 9, 0, 100),
            span(2, 1, "srv.handle", 1, 10, 90),
            span(3, 2, "grp.order", 1, 20, 40),
            span(4, 3, "rsm.apply", 1, 40, 60),
            span(5, 3, "rsm.apply", 2, 35, 85),
            span(6, 3, "rsm.apply", 3, 50, 150),
            span(7, 2, "lock.srv", 8, 80, 150),
        ];
        assert_eq!(shares(&spans), [10, 30, 20, 20, 20]);
    }

    #[test]
    fn an_open_root_has_no_budget() {
        let mut root = span(1, 0, "cli.lookup", 9, 0, 10);
        root.end = None;
        assert!(attribute(&[&root]).is_none());
    }

    #[test]
    fn table_keeps_ops_inside_the_window_only() {
        let mut early = span(1, 0, "cli.lookup", 9, 5, 20);
        early.trace = 7;
        let spans = [
            early,
            span(1, 0, "cli.lookup", 9, 100, 140),
            span(2, 1, "srv.handle", 1, 110, 130),
        ];
        let t = SpanTable::build(
            &spans,
            &[],
            SimTime::from_nanos(50),
            SimTime::from_nanos(1_000),
        );
        assert_eq!((t.traced_ops, t.handles, t.spans), (1, 1, 2));
        assert_eq!(t.budget_ms("lookup", 0), 20.0 / 1e6);
        assert_eq!(t.budget_ms("lookup", 1), 20.0 / 1e6);
        assert_eq!(t.budget_ms("update", 0), 0.0);
    }
}
