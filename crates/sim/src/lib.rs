//! # amoeba-sim — deterministic discrete-event simulation kernel
//!
//! The substrate for the Amoeba directory-service reproduction: a
//! discrete-event simulator whose "processes" are coroutines, each on a
//! stack of its own, that pass a baton: **exactly one holds it at any
//! instant**, only the holder runs simulated code, and a process that
//! blocks runs the event loop itself until it knows who is next — itself
//! (it just carries on) or another process (it switches to that one's
//! stack). Which stack dispatches an event never changes what the event
//! does, so execution is bit-exactly deterministic for a given seed.
//!
//! All processes of a [`Simulation`] run on the OS thread that calls
//! [`Simulation::run`]; passing the baton is a switch of registers, not
//! of threads. So the simulator is single-threaded by construction: its
//! kernel is an `Rc<RefCell<_>>` that every context borrows briefly, no
//! bound in this API asks for `Send`, and a `Simulation`, a
//! [`SimHandle`], a [`Ctx`] and a [`MailboxTx`] are all bound to the
//! thread that made them (code may keep a thread-local's address across
//! a call, and a process resumed on another thread would use the old
//! thread's). Two simulations on two threads share nothing. Per-process
//! state that a layer cannot pass through its calls lives in
//! [`ambient`], which the simulator saves and restores at every switch.
//! The switch is written for x86_64 Linux; other targets do not build.
//!
//! Code that takes no simulated time and only passes messages on — a
//! machine's packet demultiplexers, its protocol timers — is not a process
//! but a *kernel handler* ([`SimHandle::handler`]): a closure the
//! simulator owns, called with each message of its mailbox at delivery
//! time by whichever context holds the baton, with the kernel not
//! borrowed. A handler may send, read the clock and touch its own state;
//! it must not block (it has no [`Ctx`]) and must not read per-process
//! state (it runs inside an arbitrary process); it has no RNG stream and
//! no [`ProcOutput`]; and it dies with its node.
//!
//! Protocol code written against this crate reads like ordinary blocking
//! code — `ctx.sleep(..)`, `rx.recv(ctx)`, `tx.send(msg)` — exactly the
//! style of the pseudocode in the ICDCS '93 paper (initiator threads that
//! block until the group thread has executed a request, and so on).
//!
//! ## Features
//!
//! * Virtual time ([`SimTime`]) with nanosecond resolution.
//! * Typed, deterministic [`mailboxes`](MailboxTx) with optional delivery
//!   delays — the basis for the simulated network and disks — read by a
//!   process or by a kernel handler. A delivery is a plain event; the
//!   message waits in its mailbox, so it costs no allocation of its own.
//! * Crashable [`nodes`](NodeId): failure domains whose processes are killed
//!   together, losing all RAM state, while shared persistent objects
//!   survive — the paper's fail-stop model.
//! * A tiny deterministic PRNG ([`SimRng`]) so results do not depend on any
//!   external crate's stream stability.
//!
//! ## Example
//!
//! ```
//! use amoeba_sim::Simulation;
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new(7);
//! let (tx, rx) = sim.channel::<u32>();
//! sim.spawn("producer", move |ctx| {
//!     ctx.sleep(Duration::from_millis(2));
//!     tx.send(99);
//! });
//! let got = sim.spawn("consumer", move |ctx| rx.recv(ctx));
//! sim.run();
//! assert_eq!(got.take(), Some(99));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coro;
mod ctx;
mod fnv;
mod handle;
mod idhash;
mod ids;
mod kernel;
mod mailbox;
mod process;
mod record;
mod resource;
mod rng;
mod sim;
mod spawn;
mod time;

#[doc(hidden)]
pub use coro::mapped_stacks;
pub use coro::{ambient, set_ambient};
pub use ctx::Ctx;
pub use fnv::{fnv1a, Fnv1a};
pub use handle::SimHandle;
pub use idhash::{IdHasher, IdMap, IdSet};
pub use ids::{NodeId, ProcId};
pub use mailbox::{MailboxRx, MailboxTx, ReplyRx};
pub use process::ProcOutput;
pub use record::{fault_codes, SimTrace, StepTag, TraceStep};
pub use resource::Resource;
pub use rng::SimRng;
pub use sim::{Activations, RunStats, Simulation};
pub use spawn::Spawn;
pub use time::SimTime;
