//! The server side of Amoeba RPC: `getreq` / `putrep`.

use amoeba_flip::wire::Wire;
use amoeba_flip::{Dest, Payload, Port};
use amoeba_sim::Ctx;

use crate::msg::RpcMsg;
use crate::node::{IncomingRequest, RpcNode, RPC_PORT};

/// A server's attachment to a service port.
///
/// Each server *thread* loops `getreq` → handle → `putrep`, exactly as in
/// Amoeba. While no thread of a machine is blocked in `getreq`, that
/// machine's kernel answers requests with NOTHERE and stays silent on
/// locates — the load-spreading mechanism measured in the paper's Fig. 8.
/// Between `getreq` and `putrep` the kernel answers the client's
/// enquiries about the request with `Working`.
#[derive(Debug, Clone)]
pub struct RpcServer {
    node: RpcNode,
    service: Port,
}

impl RpcServer {
    /// Registers `service` on the node and returns the server handle.
    pub fn new(node: &RpcNode, service: Port) -> Self {
        node.register_service(service);
        RpcServer {
            node: node.clone(),
            service,
        }
    }

    /// The service port this server answers on.
    pub fn service(&self) -> Port {
        self.service
    }

    /// The host this server runs on.
    pub fn addr(&self) -> amoeba_flip::HostAddr {
        self.node.addr()
    }

    /// Blocks until a request arrives for this service.
    pub fn getreq(&self, ctx: &Ctx) -> IncomingRequest {
        let (tx, rx) = ctx.reply_channel();
        self.node.push_listener(self.service, tx);
        rx.recv(ctx)
    }

    /// Sends the reply for a previously received request. The reply
    /// bytes are shared, not copied, on their way to the wire.
    pub fn putrep(&self, req: &IncomingRequest, data: impl Into<Payload>) {
        self.node.finish_request(req.client, req.tid);
        let tags = if req.trace.is_some() {
            vec![(0, req.trace)]
        } else {
            Vec::new()
        };
        self.node.stack().send_traced(
            Dest::Unicast(req.client),
            RPC_PORT,
            RpcMsg::Reply {
                tid: req.tid,
                data: data.into(),
            }
            .encode(),
            tags,
        );
    }
}
