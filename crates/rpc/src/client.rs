//! The client side of Amoeba RPC: `trans`.

use std::time::Duration;

use amoeba_flip::wire::Wire;
use amoeba_flip::{Dest, HostAddr, Payload, Port};
use amoeba_sim::{Ctx, MailboxRx};
use amoeba_telemetry::Telemetry;

use crate::error::RpcError;
use crate::msg::RpcMsg;
use crate::node::{CallEvent, RpcNode, RPC_PORT};

/// How long a call may go without word from its server before the
/// client asks the server's kernel whether a thread still holds it.
/// Longer than any call of the paper's deployment below saturation, so
/// that deployment sends no enquiry; clamped to `reply_timeout` minus
/// the enquiry window for clients with shorter timeouts.
const ENQUIRY_INTERVAL: Duration = Duration::from_millis(200);

/// Enquiries in a row that must each go unanswered within the window
/// before the server is taken for silent: one lost packet does not
/// evict a live server.
const SILENT_ENQUIRIES: u32 = 2;

/// Tunables for the client transaction logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcParams {
    /// How long to wait for a HEREIS after broadcasting a locate. Also
    /// the enquiry window, clamped to half of `reply_timeout`: an
    /// enquiry the server's kernel has not answered within it counts as
    /// unanswered.
    pub locate_timeout: Duration,
    /// Bounds one attempt: whatever the server's kernel answers, an
    /// attempt ends 2 × `reply_timeout` after its send. A crashed server
    /// is found by enquiries, not by this timeout; it only clamps the
    /// enquiry interval to `reply_timeout` minus the window.
    pub reply_timeout: Duration,
    /// Attempts (locates + sends) before giving up; each waits at most
    /// 2 × `reply_timeout` for its reply.
    pub max_attempts: u32,
    /// Upper bound of the random dither before a re-locate, which keeps
    /// competing clients from thundering in lockstep.
    pub relocate_jitter: Duration,
}

impl Default for RpcParams {
    fn default() -> Self {
        RpcParams {
            locate_timeout: Duration::from_millis(60),
            reply_timeout: Duration::from_millis(500),
            max_attempts: 200,
            relocate_jitter: Duration::from_millis(3),
        }
    }
}

/// An RPC client bound to one machine's kernel.
///
/// `trans` consults the kernel port cache, otherwise broadcast-locates and
/// takes the first HEREIS, as in the paper. A server is evicted from the
/// cache only when it is silent:
///
/// * **NOTHERE** demotes the refusing server to the back of the cache and
///   skips it for the rest of the call; the client re-locates only once
///   every cached server has refused it. After that locate, the cached
///   servers get another turn before the next one.
/// * **No word for 200 ms** (`ENQUIRY_INTERVAL`) sends an enquiry to the
///   server's kernel. `Working` (a thread holds the call) starts a fresh
///   200 ms; two enquiries in a row unanswered within the window are
///   silence: the server is evicted and the request re-sent. A crashed
///   server is thus dropped 200 ms + 2 × 60 ms = 320 ms after the send
///   under the default parameters, and an attempt ends 2 ×
///   `reply_timeout` after its send whatever the answers.
#[derive(Debug, Clone)]
pub struct RpcClient {
    node: RpcNode,
    params: RpcParams,
}

impl RpcClient {
    /// Creates a client on `node` with default parameters.
    pub fn new(node: &RpcNode) -> Self {
        Self::with_params(node, RpcParams::default())
    }

    /// Creates a client with explicit parameters.
    pub fn with_params(node: &RpcNode, params: RpcParams) -> Self {
        RpcClient {
            node: node.clone(),
            params,
        }
    }

    /// The host this client runs on.
    pub fn addr(&self) -> HostAddr {
        self.node.addr()
    }

    /// Performs one request/reply transaction with any server of `service`.
    ///
    /// The request is encoded once by the caller; retries re-send the
    /// same shared buffer without copying it.
    ///
    /// # Errors
    ///
    /// [`RpcError::Unreachable`] if no server answered within
    /// `max_attempts` tries; each waits at most 2 × `reply_timeout`.
    pub fn trans(
        &self,
        ctx: &Ctx,
        service: Port,
        request: impl Into<Payload>,
    ) -> Result<Payload, RpcError> {
        self.trans_traced(ctx, service, request, amoeba_telemetry::current_ctx())
    }

    /// [`trans`](RpcClient::trans) carrying a causal-trace context as
    /// out-of-band packet metadata; the server sees it on
    /// [`IncomingRequest::trace`](crate::IncomingRequest). A `NONE`
    /// context makes this identical to `trans`.
    pub fn trans_traced(
        &self,
        ctx: &Ctx,
        service: Port,
        request: impl Into<Payload>,
        trace: amoeba_telemetry::TraceCtx,
    ) -> Result<Payload, RpcError> {
        let request = request.into();
        // Servers that refused this call since its last locate: the next
        // attempt tries another.
        let mut refused = Vec::new();
        for _ in 0..self.params.max_attempts {
            let server = match self.node.cache_first_except(service, &refused) {
                Some(s) => s,
                None => {
                    // Every cached server refused (or none is cached):
                    // look for a free one. After this locate the cached
                    // servers get another turn before the next.
                    refused.clear();
                    match self.locate(ctx, service) {
                        Some(s) => s,
                        None => continue, // locate timed out; try again
                    }
                }
            };
            let (tid, rx) = self.node.register_call(ctx);
            let tags = if trace.is_some() {
                vec![(0, trace)]
            } else {
                Vec::new()
            };
            self.node.stack().send_traced(
                Dest::Unicast(server),
                RPC_PORT,
                RpcMsg::Request {
                    service,
                    client: self.node.addr(),
                    tid,
                    data: request.clone(),
                }
                .encode(),
                tags,
            );
            match self.await_reply(ctx, server, tid, &rx) {
                Attempt::Reply(data) => return Ok(data),
                Attempt::NotHere => {
                    // Kernel said nobody is listening there right now.
                    count(ctx, "rpc.nothere");
                    self.node.cache_demote(service, server);
                    refused.push(server);
                }
                Attempt::Silence => {
                    // Silence: the server host probably crashed.
                    count(ctx, "rpc.silences");
                    self.node.unregister_call(tid);
                    self.node.cache_remove(service, server);
                }
            }
        }
        Err(RpcError::Unreachable {
            service,
            attempts: self.params.max_attempts,
        })
    }

    /// Waits for the reply or refusal of call `tid` at `server`. After
    /// `ENQUIRY_INTERVAL` without word it enquires; a `Working` answer
    /// starts a fresh interval, and `SILENT_ENQUIRIES` unanswered in a row
    /// are silence. The attempt ends 2 × `reply_timeout` after the send.
    fn await_reply(
        &self,
        ctx: &Ctx,
        server: HostAddr,
        tid: u64,
        rx: &MailboxRx<CallEvent>,
    ) -> Attempt {
        let reply_timeout = self.params.reply_timeout;
        let window = self.params.locate_timeout.min(reply_timeout / 2);
        let interval = ENQUIRY_INTERVAL.min(reply_timeout - window);
        let end = ctx.now() + 2 * reply_timeout;
        let mut deadline = ctx.now() + interval;
        let mut unanswered = 0;
        loop {
            match rx.recv_deadline(ctx, deadline.min(end)) {
                Some(CallEvent::Working) => {
                    count(ctx, "rpc.working");
                    unanswered = 0;
                    deadline = ctx.now() + interval;
                }
                Some(CallEvent::Reply(data)) => return Attempt::Reply(data),
                Some(CallEvent::NotHere) => return Attempt::NotHere,
                None if unanswered < SILENT_ENQUIRIES && ctx.now() < end => {
                    count(ctx, "rpc.enquiries");
                    unanswered += 1;
                    deadline = ctx.now() + window;
                    self.node.stack().send(
                        Dest::Unicast(server),
                        RPC_PORT,
                        RpcMsg::Enquire {
                            client: self.node.addr(),
                            tid,
                        }
                        .encode(),
                    );
                }
                None => return Attempt::Silence,
            }
        }
    }

    /// Expanding-ring locate: broadcasts with a growing hop limit
    /// (local segment first, then 2, 4, ... router hops up to the
    /// topology diameter) and takes the first HEREIS. Nearby servers
    /// answer without the broadcast ever crossing a router; remote ones
    /// are found without storming every segment on every locate. On a
    /// flat network this is exactly one full broadcast, as before. It
    /// is delivered only to hosts that serve `service`; the others are
    /// charged its receive and drop it.
    fn locate(&self, ctx: &Ctx, service: Port) -> Option<HostAddr> {
        // Dither to avoid lockstep among competing clients.
        let jitter_nanos = self.params.relocate_jitter.as_nanos() as u64;
        if jitter_nanos > 0 {
            let d = ctx.with_rng(|r| r.next_below(jitter_nanos));
            ctx.sleep(Duration::from_nanos(d));
        }
        let max = self.node.stack().max_hops();
        let mut ttl = 1u8;
        loop {
            count(ctx, "rpc.locates");
            let (lid, rx) = self.node.register_locate(ctx);
            self.node.stack().locate(
                RPC_PORT,
                service,
                RpcMsg::Locate {
                    service,
                    client: self.node.addr(),
                    locate_id: lid,
                }
                .encode(),
                ttl,
            );
            let r = rx.recv_timeout(ctx, self.params.locate_timeout);
            self.node.unregister_locate(lid);
            if r.is_some() || ttl >= max {
                if r.is_none() {
                    count(ctx, "rpc.locate_timeouts");
                }
                return r;
            }
            ttl = ttl.saturating_mul(2).min(max);
        }
    }
}

/// How one attempt of a call ended.
enum Attempt {
    Reply(Payload),
    NotHere,
    /// Enquiries went unanswered, or the attempt ran out its
    /// 2 × `reply_timeout`.
    Silence,
}

/// Bumps the `rpc.*` counter `name` in the telemetry registry, if one is
/// installed. Only rare events are counted, so the lookup is per event.
fn count(ctx: &Ctx, name: &str) {
    Telemetry::from_handle(&ctx.handle()).count(name, 1);
}
