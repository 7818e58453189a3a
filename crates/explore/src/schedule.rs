//! Fault schedules: what to inject into a scenario, and when.
//!
//! A [`FaultSchedule`] is pure data — a list of [`Injection`]s at
//! millisecond-resolution logical times — so it can be generated from a
//! seed, compared, shrunk, and serialized into a repro bundle. The
//! scenario runner applies it from the simulation's main thread at
//! exact `run_until` boundaries, which makes the injection times part
//! of the deterministic program: the same schedule over the same
//! [`crate::scenario::ScenarioParams`] is the same run, bit for bit.

use std::ops::RangeInclusive;

use amoeba_flip::wire::{Counted, DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::wire_struct;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash replica column `column` (machine dies, NIC goes silent;
    /// disk, Bullet layout and NVRAM survive); the injection's end
    /// reboots it through the recovery protocol.
    Crash {
        /// Flat column index (taken modulo the deployment's columns).
        column: usize,
    },
    /// Partition column `column` alone on one side of the network; the
    /// injection's end heals all partitions.
    Isolate {
        /// Flat column index (taken modulo the deployment's columns).
        column: usize,
    },
    /// Degrade the whole network for the window: packet loss,
    /// duplication and latency jitter in per-mille (so schedules stay
    /// `Eq` and serialize exactly); the injection's end restores the
    /// base parameters.
    Degrade {
        /// Loss probability, per mille.
        loss_pm: u16,
        /// Duplication probability, per mille.
        dup_pm: u16,
        /// Multiplicative latency jitter, per mille (1000 ⇒ up to 2×).
        jitter_pm: u16,
    },
}

/// A `u8` code, then the kind's operands, each a `u64`.
impl Wire for FaultKind {
    fn put(&self, w: &mut WireWriter) {
        match *self {
            FaultKind::Crash { column } => w.u8(1).u64(column as u64),
            FaultKind::Isolate { column } => w.u8(2).u64(column as u64),
            FaultKind::Degrade {
                loss_pm,
                dup_pm,
                jitter_pm,
            } => w
                .u8(3)
                .u64(loss_pm.into())
                .u64(dup_pm.into())
                .u64(jitter_pm.into()),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<FaultKind, DecodeError> {
        Ok(match r.u8("inj kind")? {
            1 => FaultKind::Crash {
                column: r.u64("inj col")? as usize,
            },
            2 => FaultKind::Isolate {
                column: r.u64("inj col")? as usize,
            },
            3 => FaultKind::Degrade {
                loss_pm: ranged(r, 0..=1000, "inj loss")? as u16,
                dup_pm: ranged(r, 0..=1000, "inj dup")? as u16,
                jitter_pm: ranged(r, 0..=u16::MAX.into(), "inj jitter")? as u16,
            },
            _ => return Err(DecodeError::new("inj kind")),
        })
    }
}

/// Reads a `u64` that must lie in `range`, as a `usize`.
pub(crate) fn ranged(
    r: &mut WireReader<'_>,
    range: RangeInclusive<u64>,
    what: &'static str,
) -> Result<usize, DecodeError> {
    let v = r.u64(what)?;
    if range.contains(&v) {
        Ok(v as usize)
    } else {
        Err(DecodeError::new(what))
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Crash { column } => write!(f, "crash(col {column})"),
            FaultKind::Isolate { column } => write!(f, "isolate(col {column})"),
            FaultKind::Degrade {
                loss_pm,
                dup_pm,
                jitter_pm,
            } => write!(
                f,
                "degrade(loss {}%, dup {}%, jitter {}%)",
                *loss_pm as f64 / 10.0,
                *dup_pm as f64 / 10.0,
                *jitter_pm as f64 / 10.0
            ),
        }
    }
}

wire_struct! {
    /// One fault injection: a start time, a duration, and a kind.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Injection {
        /// Start, in milliseconds of simulated time.
        pub at_ms: u64,
        /// Duration of the fault window, in milliseconds.
        pub dur_ms: u64,
        /// What to inject.
        pub kind: FaultKind,
    }
}

impl std::fmt::Display for Injection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={}ms +{}ms {}", self.at_ms, self.dur_ms, self.kind)
    }
}

wire_struct! {
    /// A list of injections. [`FaultSchedule::new`] sorts them by start
    /// time; shrinking may then move one ahead of an earlier-listed one.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FaultSchedule {
        /// The injections, in list order: the scenario sorts their edges by
        /// time with a stable sort, so this order breaks ties. They decode
        /// in the order written, not re-sorted: a shrunk schedule can list
        /// a later start first, and its recorded run used that order.
        pub injections: Vec<Injection> as INJECTIONS,
    }
}

impl FaultSchedule {
    /// A schedule from unordered injections (sorts by start time,
    /// stable within ties).
    pub fn new(mut injections: Vec<Injection>) -> FaultSchedule {
        injections.sort_by_key(|i| i.at_ms);
        FaultSchedule { injections }
    }

    /// The empty schedule: a fault-free run.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// A schedule that hunts the group log's checkpointer. The
    /// journaled commit path drains its dirty set on a fixed tick
    /// (the journal's `checkpoint_interval`, `interval_ms` here), so the
    /// journal sits at its high-water mark in the moments *before* a
    /// tick and the table writeback runs in the moments *after* it.
    /// This places short crash windows on both edges of successive
    /// ticks through the write phase — landing crashes while records
    /// are uncovered and while the drain is half-written — plus one
    /// isolation window across a tick, columns rotating so every
    /// replica of a small deployment gets hit. Purely deterministic:
    /// the tick phase is keyed to boot time, not to runtime state.
    pub fn checkpoint_phase(
        columns: usize,
        interval_ms: u64,
        write_start_ms: u64,
    ) -> FaultSchedule {
        let interval = interval_ms.max(50);
        let cols = columns.max(1);
        let at =
            |ticks: u64, skew: i64| (write_start_ms + ticks * interval).saturating_add_signed(skew);
        FaultSchedule::new(vec![
            // Journal high-water: die just before a checkpoint tick,
            // with a full interval's worth of records uncovered.
            Injection {
                at_ms: at(2, -15),
                dur_ms: 400,
                kind: FaultKind::Crash { column: 0 },
            },
            // Mid-drain: die just after a tick, while the checkpointer
            // is writing table/Bullet blocks for the drained acts.
            Injection {
                at_ms: at(4, 10),
                dur_ms: 400,
                kind: FaultKind::Crash { column: 1 % cols },
            },
            // A partition spanning a tick: the isolated replica
            // checkpoints alone, then must reconcile on heal.
            Injection {
                at_ms: at(6, -15),
                dur_ms: 300,
                kind: FaultKind::Isolate { column: 2 % cols },
            },
            // Second pass over the first column, mid-drain this time.
            Injection {
                at_ms: at(8, 5),
                dur_ms: 400,
                kind: FaultKind::Crash { column: 0 },
            },
        ])
    }

    /// Number of injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// Whether the schedule has no injections.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }
}

/// A schedule's injections: a `u32` count of at most 10,000.
const INJECTIONS: Counted = Counted::u32(10_000, "schedule len");

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.injections.is_empty() {
            return write!(f, "(no faults)");
        }
        for (k, i) in self.injections.iter().enumerate() {
            if k > 0 {
                writeln!(f)?;
            }
            write!(f, "  [{k}] {i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_round_trip() {
        let s = FaultSchedule::new(vec![
            Injection {
                at_ms: 9_000,
                dur_ms: 2_000,
                kind: FaultKind::Degrade {
                    loss_pm: 300,
                    dup_pm: 50,
                    jitter_pm: 100,
                },
            },
            Injection {
                at_ms: 6_000,
                dur_ms: 3_000,
                kind: FaultKind::Crash { column: 2 },
            },
            Injection {
                at_ms: 7_000,
                dur_ms: 1_000,
                kind: FaultKind::Isolate { column: 0 },
            },
        ]);
        // Sorted by start time.
        assert_eq!(s.injections[0].at_ms, 6_000);
        assert_eq!(FaultSchedule::decode(&s.encode()), Ok(s));
    }

    #[test]
    fn bad_kind_is_rejected() {
        let mut w = WireWriter::new();
        w.u32(1);
        w.u64(0).u64(0).u8(9);
        assert!(FaultSchedule::decode(w.as_slice()).is_err());
    }

    #[test]
    fn out_of_range_injections_are_refused() {
        let degrade = |loss_pm: u64| {
            let mut w = WireWriter::new();
            w.u32(1).u64(0).u64(0).u8(3).u64(loss_pm).u64(0).u64(0);
            FaultSchedule::decode(w.as_slice())
        };
        assert!(degrade(1000).is_ok());
        assert!(degrade(1001).is_err(), "more than every packet lost");
    }

    #[test]
    fn injections_decode_in_the_order_written() {
        let mut w = WireWriter::new();
        w.u32(2);
        for at_ms in [5, 4] {
            w.u64(at_ms).u64(1).u8(1).u64(0);
        }
        let s = FaultSchedule::decode(w.as_slice()).expect("decodes");
        let starts: Vec<u64> = s.injections.iter().map(|i| i.at_ms).collect();
        assert_eq!(starts, [5, 4]);
    }
}
