//! Decision-trace record/replay for the simulation kernel.
//!
//! # Determinism contract
//!
//! A simulation run is a pure function of `(program, seed)`: the kernel
//! processes events in strict `(time, seq)` order, exactly one context
//! (the driver or a process) *holds the baton* at any instant — only it
//! runs simulated code or touches the kernel — and every
//! random draw comes from [`crate::SimRng`] streams forked
//! deterministically from the seed. The kernel may consult **nothing
//! else** — no wall clock, no OS entropy, no address-dependent hashing, no
//! iteration over randomized containers, and no per-process state (the
//! event loop runs on whichever stack holds the baton, so *which* process
//! dispatches an event is not part of the run) — when making a scheduling
//! decision. Kernel handlers ([`crate::SimHandle::handler`]) are held to
//! the same: they run on the dispatching stack, between two events, and
//! may consult only their messages, their own state and the clock. Under
//! that contract, re-running the same program with the same seed
//! reproduces the run bit-exactly.
//!
//! Recording turns that implicit property into a checkable artifact: every
//! nondeterministic-looking decision the kernel makes (which event pops
//! next, which process resumes and why, what each process yields, every
//! spawn, every fault-model action) is appended to a [`SimTrace`] as a
//! fixed-size [`TraceStep`]. A kernel handler adds no step of its own
//! kind: its registration is a `Spawn` step, each call is the
//! `EventAction` step of the delivery that caused it, and what it sends
//! shows as the `EventAction` steps that follow.
//!
//! # Replay is verify-mode
//!
//! Because the kernel is deterministic, replay does not *drive* the kernel
//! from the trace; it re-executes the same program from the same seed and
//! **cross-checks** every decision against the recorded step at the same
//! position. The first departure panics with a `replay divergence` message
//! naming the step index, what the trace expected and what the live run
//! did, and checking stops there: whichever process found it, the panic
//! reaches the caller of `run`, and the teardown is not compared. A
//! passing replay is therefore a proof that the run was reproduced
//! decision-for-decision — and a failing one points at the exact first
//! decision where determinism broke (typically an un-audited `HashMap`
//! iteration or a real-time dependency leaking into the model).
//!
//! RNG draws happen in process code, outside the kernel, so they
//! are not recorded one-by-one; instead every yield carries a digest of the
//! yielding process's RNG state ([`crate::SimRng::digest`]). The xoshiro
//! state is a perfect summary of the draw history, so a divergent draw is
//! caught at the first yield after it.
//!
//! # Trace format
//!
//! [`SimTrace::to_bytes`] serializes as: magic `"AMTR"`, `u16` version,
//! `u64` seed, `u64` step count, then one 33-byte record per step
//! (`u64` time_ns, `u8` tag, `u64 × 3` operands), all little-endian.

/// What kind of kernel decision a [`TraceStep`] records.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum StepTag {
    /// A process or a kernel handler was registered: `a` = pid, `b` = node
    /// id + 1 (0 = none), `c` = FNV-1a hash of its name.
    Spawn = 1,
    /// A `Start` event popped: `a` = pid.
    EventStart = 2,
    /// A `Timer` event popped: `a` = pid, `b` = wake generation.
    EventTimer = 3,
    /// An `Action` event popped: `a` = its schedule sequence number.
    EventAction = 4,
    /// A `Reap` event popped: `a` = victim count, `b` = first pid,
    /// `c` = last pid.
    EventReap = 5,
    /// A process was resumed: `a` = pid, `b` = wake-reason code
    /// (0 First, 1 Slept, 2 MailboxReady, 3 TimedOut), `c` = 0.
    Resume = 6,
    /// A process yielded: `a` = pid, `b` = yield-kind code (0 Sleep,
    /// 1 Wait, 2 Exited), `c` = the process's RNG state digest.
    Yield = 7,
    /// A fault-model action (node crash/revive, link/partition/parameter
    /// changes recorded by the network layer): `a`/`b`/`c` are a
    /// fault code and its operands (see [`crate::fault_codes`]).
    Fault = 8,
}

impl StepTag {
    fn from_u8(v: u8) -> Option<StepTag> {
        Some(match v {
            1 => StepTag::Spawn,
            2 => StepTag::EventStart,
            3 => StepTag::EventTimer,
            4 => StepTag::EventAction,
            5 => StepTag::EventReap,
            6 => StepTag::Resume,
            7 => StepTag::Yield,
            8 => StepTag::Fault,
            _ => return None,
        })
    }
}

/// Well-known `a`-operand codes for [`StepTag::Fault`] steps.
///
/// Codes 1–9 are reserved for the kernel itself; the network layer uses
/// 10 and up. The `b`/`c` operands are code-specific (node ids, host
/// addresses, scaled probabilities).
pub mod fault_codes {
    /// Kernel: a node crashed (`b` = node id).
    pub const CRASH_NODE: u64 = 1;
    /// Kernel: a node was revived (`b` = node id).
    pub const REVIVE_NODE: u64 = 2;
    /// Network: a host NIC went down (`b` = host address).
    pub const NET_DOWN: u64 = 10;
    /// Network: a host NIC came back up (`b` = host address).
    pub const NET_UP: u64 = 11;
    /// Network: hosts were isolated into a partition (`b` = host count,
    /// `c` = FNV hash of the host list).
    pub const NET_ISOLATE: u64 = 12;
    /// Network: an explicit partition map was installed (`b` = entry
    /// count, `c` = FNV hash of the map).
    pub const NET_PARTITION: u64 = 13;
    /// Network: all partitions healed.
    pub const NET_HEAL: u64 = 14;
    /// Network: delivery parameters changed (`b` = loss probability and
    /// `c` = duplicate probability, both scaled by 1e9).
    pub const NET_PARAMS: u64 = 15;
}

/// One recorded kernel decision.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// Virtual time of the decision, in nanoseconds.
    pub time_ns: u64,
    /// What kind of decision this was.
    pub tag: StepTag,
    /// First operand (meaning depends on `tag`).
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Third operand.
    pub c: u64,
}

/// A complete decision trace of one simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimTrace {
    /// The RNG seed the run started from.
    pub seed: u64,
    /// Every recorded decision, in execution order.
    pub steps: Vec<TraceStep>,
}

const MAGIC: &[u8; 4] = b"AMTR";
const VERSION: u16 = 1;

impl SimTrace {
    /// Serializes the trace to its compact binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 2 + 8 + 8 + self.steps.len() * 33);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.steps.len() as u64).to_le_bytes());
        for s in &self.steps {
            out.extend_from_slice(&s.time_ns.to_le_bytes());
            out.push(s.tag as u8);
            out.extend_from_slice(&s.a.to_le_bytes());
            out.extend_from_slice(&s.b.to_le_bytes());
            out.extend_from_slice(&s.c.to_le_bytes());
        }
        out
    }

    /// Parses a trace produced by [`SimTrace::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<SimTrace, String> {
        fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
            if data.len() < n {
                return Err("trace truncated".to_owned());
            }
            let (head, rest) = data.split_at(n);
            *data = rest;
            Ok(head)
        }
        fn take_u64(data: &mut &[u8]) -> Result<u64, String> {
            let b = take(data, 8)?;
            Ok(u64::from_le_bytes(b.try_into().unwrap()))
        }
        let mut d = data;
        if take(&mut d, 4)? != MAGIC {
            return Err("not a trace file (bad magic)".to_owned());
        }
        let ver = u16::from_le_bytes(take(&mut d, 2)?.try_into().unwrap());
        if ver != VERSION {
            return Err(format!("unsupported trace version {ver}"));
        }
        let seed = take_u64(&mut d)?;
        let count = take_u64(&mut d)? as usize;
        let mut steps = Vec::with_capacity(count.min(1 << 20));
        for i in 0..count {
            let time_ns = take_u64(&mut d)?;
            let tag_byte = take(&mut d, 1)?[0];
            let tag = StepTag::from_u8(tag_byte)
                .ok_or_else(|| format!("step {i}: unknown tag {tag_byte}"))?;
            let a = take_u64(&mut d)?;
            let b = take_u64(&mut d)?;
            let c = take_u64(&mut d)?;
            steps.push(TraceStep {
                time_ns,
                tag,
                a,
                b,
                c,
            });
        }
        Ok(SimTrace { seed, steps })
    }
}

/// Kernel-side recording/replay state.
pub(crate) enum RecMode {
    /// No recording; zero overhead beyond a discriminant check.
    Off,
    /// Appending every decision to the vector.
    Record(Vec<TraceStep>),
    /// Cross-checking every decision against a recorded trace.
    Replay {
        steps: Vec<TraceStep>,
        cursor: usize,
    },
}

impl RecMode {
    /// Records or verifies one decision. Panics on replay divergence.
    pub fn checkpoint(&mut self, step: TraceStep) {
        match self {
            RecMode::Off => {}
            RecMode::Record(steps) => steps.push(step),
            RecMode::Replay { steps, cursor } => {
                if *cursor >= steps.len() {
                    // The live run outlived the trace (e.g. the recording
                    // stopped at a panic whose teardown we are past); stop
                    // checking rather than failing spuriously.
                    return;
                }
                let expected = steps[*cursor];
                if expected != step {
                    // Stop checking: the run is torn down from here, and
                    // a second panic on the way out would mask this one.
                    let at = std::mem::replace(cursor, steps.len());
                    panic!(
                        "replay divergence at step {}: expected {:?} t={}ns \
                         (a={} b={} c={}), got {:?} t={}ns (a={} b={} c={})",
                        at,
                        expected.tag,
                        expected.time_ns,
                        expected.a,
                        expected.b,
                        expected.c,
                        step.tag,
                        step.time_ns,
                        step.a,
                        step.b,
                        step.c,
                    );
                }
                *cursor += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::fnv1a;

    #[test]
    fn roundtrip_bytes() {
        let t = SimTrace {
            seed: 42,
            steps: vec![
                TraceStep {
                    time_ns: 0,
                    tag: StepTag::Spawn,
                    a: 0,
                    b: 1,
                    c: fnv1a(b"worker"),
                },
                TraceStep {
                    time_ns: 5_000_000,
                    tag: StepTag::Resume,
                    a: 0,
                    b: 1,
                    c: 0,
                },
            ],
        };
        let bytes = t.to_bytes();
        let back = SimTrace::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(SimTrace::from_bytes(b"nope").is_err());
        assert!(SimTrace::from_bytes(b"AMTR\x09\x00").is_err());
    }

    #[test]
    fn replay_divergence_panics() {
        let step = |a| TraceStep {
            time_ns: 1,
            tag: StepTag::EventStart,
            a,
            b: 0,
            c: 0,
        };
        let mut mode = RecMode::Replay {
            steps: vec![step(1), step(2)],
            cursor: 0,
        };
        mode.checkpoint(step(1));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mode.checkpoint(step(9));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("replay divergence at step 1"), "{msg}");
    }

    #[test]
    fn replay_is_lenient_past_trace_end() {
        let mut mode = RecMode::Replay {
            steps: vec![],
            cursor: 0,
        };
        mode.checkpoint(TraceStep {
            time_ns: 0,
            tag: StepTag::Fault,
            a: 1,
            b: 2,
            c: 3,
        });
    }
}
