//! # amoeba-rpc — Amoeba-style remote procedure call over simulated FLIP
//!
//! Reproduces the RPC machinery the ICDCS '93 paper's baseline directory
//! service (and its clients) are built on:
//!
//! * **`trans`** ([`RpcClient::trans`]): one request/reply transaction with
//!   *some* server of a service port.
//! * **`getreq`/`putrep`** ([`RpcServer`]): the server-thread loop.
//! * **Locate protocol**: the client kernel broadcasts a locate; every
//!   machine with a thread listening on the port answers HEREIS; the client
//!   caches every answer and uses the *first* replier. Every machine the
//!   broadcast reaches pays its receive CPU, but only one that has
//!   registered a server for the port ever has it delivered
//!   ([`amoeba_flip::NodeStack::locate`]); the rest drop it in the
//!   kernel, where a delivery would have woken the handler to no end.
//! * **NOTHERE**: a machine whose service has no listening thread refuses
//!   requests at kernel level — the (deliberately imperfect) load-spreading
//!   heuristic whose effect the paper measures in Fig. 8. It is a hint,
//!   not a crash signal: the client demotes the refusing server to the
//!   back of its port cache and tries the next cached one, and re-locates
//!   only once every cached server has refused the call (each locate
//!   gives the cached servers another turn).
//! * **Enquiry**: a call that has had no word from its server for 200 ms
//!   makes the client ask the server's kernel whether a thread still holds
//!   the call (as Amoeba's kernel finds a dead server, rather than by
//!   timing the call out). `Working` starts a fresh 200 ms; two enquiries
//!   in a row unanswered within a short window (min(`locate_timeout`,
//!   `reply_timeout`/2), 60 ms by default) are silence, and only silence
//!   evicts a server and re-sends. A crashed server is dropped 320 ms
//!   after the send by default. The interval is clamped to
//!   `reply_timeout` minus the window, and an attempt ends 2 ×
//!   `reply_timeout` after its send whatever the answers.
//!
//! The client counts `rpc.locates`, `rpc.locate_timeouts`, `rpc.nothere`,
//! `rpc.enquiries`, `rpc.working` and `rpc.silences` in the telemetry
//! registry when one is installed.
//!
//! A per-machine [`RpcNode`] plays the role of the Amoeba kernel's RPC
//! layer and dies with the machine, losing the port cache and call state,
//! exactly like the real thing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod error;
mod msg;
mod node;
mod server;

pub use client::{RpcClient, RpcParams};
pub use error::RpcError;
pub use msg::RpcMsg;
pub use node::{IncomingRequest, RpcNode, RPC_PORT};
pub use server::RpcServer;
