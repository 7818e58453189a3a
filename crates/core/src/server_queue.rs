//! A replicated FIFO queue service — the fourth consumer of the
//! [`amoeba_rsm`] API, and the one that exercises *several groups per
//! machine*: in a sharded deployment its replicas share their machines
//! (and their group kernels) with the directory shards, forming yet
//! another independent group on its own port.
//!
//! Like the lock service, the whole service is this file: a wire
//! format, a deterministic [`Service::apply`] over a map of
//! `VecDeque`s, and a typed client; the state machine, server loop and
//! client plumbing are the [`amoeba_rsm::service`] harness. There is
//! **zero group-protocol code** here. The state is fully volatile — a
//! rebooted replica recovers purely from a peer's snapshot.
//!
//! Semantics: per-queue FIFO order is the group's total order —
//! concurrent enqueuers from different machines are ordered by the
//! sequencer, and every replica observes the same dequeue order
//! (exactly-once handout per element while the service keeps a
//! majority).

use std::collections::{HashMap, VecDeque};

use amoeba_flip::wire::{DecodeError, WireReader, WireWriter};
use amoeba_flip::Port;
use amoeba_rpc::{RpcClient, RpcError};
use amoeba_rsm::service::{Service, ServiceClient, Wire};
use amoeba_sim::Ctx;

/// The public FLIP port of the queue service.
pub const QUEUE_PORT: Port = Port::from_raw(0x0051_5545); // "QUE"

/// Client-visible operations of the queue service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueRequest {
    /// Append `item` to the tail of `queue` (created on first use).
    Enqueue {
        /// Queue name.
        queue: String,
        /// Opaque element bytes.
        item: Vec<u8>,
    },
    /// Remove and return the head of `queue`.
    Dequeue {
        /// Queue name.
        queue: String,
    },
    /// Read the head of `queue` without removing it (a local read
    /// behind the read barrier).
    Peek {
        /// Queue name.
        queue: String,
    },
}

/// Replies of the queue service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueReply {
    /// Enqueue done.
    Ok,
    /// A dequeued or peeked element.
    Item(Vec<u8>),
    /// The queue is empty (or was never created).
    Empty,
    /// Malformed request.
    Malformed,
    /// The replica is recovering or without a majority.
    NoMajority,
}

const Q_ENQUEUE: u8 = 1;
const Q_DEQUEUE: u8 = 2;
const Q_PEEK: u8 = 3;

const QR_OK: u8 = 1;
const QR_ITEM: u8 = 2;
const QR_EMPTY: u8 = 3;
const QR_MALFORMED: u8 = 4;
const QR_NO_MAJORITY: u8 = 5;

impl Wire for QueueRequest {
    fn put(&self, w: &mut WireWriter) {
        match self {
            QueueRequest::Enqueue { queue, item } => w.u8(Q_ENQUEUE).string(queue).bytes(item),
            QueueRequest::Dequeue { queue } => w.u8(Q_DEQUEUE).string(queue),
            QueueRequest::Peek { queue } => w.u8(Q_PEEK).string(queue),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<QueueRequest, DecodeError> {
        Ok(match r.u8("queue req tag")? {
            Q_ENQUEUE => QueueRequest::Enqueue {
                queue: r.string("queue name")?,
                item: r.bytes("queue item")?.to_vec(),
            },
            Q_DEQUEUE => QueueRequest::Dequeue {
                queue: r.string("queue name")?,
            },
            Q_PEEK => QueueRequest::Peek {
                queue: r.string("queue name")?,
            },
            _ => return Err(DecodeError::new("queue req tag")),
        })
    }
}

impl Wire for QueueReply {
    fn put(&self, w: &mut WireWriter) {
        match self {
            QueueReply::Ok => w.u8(QR_OK),
            QueueReply::Item(bytes) => w.u8(QR_ITEM).bytes(bytes),
            QueueReply::Empty => w.u8(QR_EMPTY),
            QueueReply::Malformed => w.u8(QR_MALFORMED),
            QueueReply::NoMajority => w.u8(QR_NO_MAJORITY),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<QueueReply, DecodeError> {
        Ok(match r.u8("queue rep tag")? {
            QR_OK => QueueReply::Ok,
            QR_ITEM => QueueReply::Item(r.bytes("queue item")?.to_vec()),
            QR_EMPTY => QueueReply::Empty,
            QR_MALFORMED => QueueReply::Malformed,
            QR_NO_MAJORITY => QueueReply::NoMajority,
            _ => return Err(DecodeError::new("queue rep tag")),
        })
    }
}

// ---------------------------------------------------------------------
// The state and its ops.
// ---------------------------------------------------------------------

/// The replicated queue table: queue name → elements, head first.
pub type QueueTable = HashMap<String, VecDeque<Vec<u8>>>;

/// The queue service, as the harness sees it.
#[derive(Debug)]
pub struct QueueService;

impl Service for QueueService {
    const NAME: &'static str = "queue";
    const PROC: &'static str = "queue";
    const PORT: Port = QUEUE_PORT;
    const NO_MAJORITY: QueueReply = QueueReply::NoMajority;
    const MALFORMED: QueueReply = QueueReply::Malformed;
    type State = QueueTable;
    type Request = QueueRequest;
    type Reply = QueueReply;
    type Client = QueueClient;

    fn apply(queues: &mut QueueTable, req: QueueRequest) -> QueueReply {
        match req {
            QueueRequest::Enqueue { queue, item } => {
                queues.entry(queue).or_default().push_back(item);
                QueueReply::Ok
            }
            QueueRequest::Dequeue { queue } => {
                let item = queues.get_mut(&queue).and_then(|q| q.pop_front());
                if queues.get(&queue).is_some_and(|q| q.is_empty()) {
                    queues.remove(&queue); // empty queues leave no residue
                }
                match item {
                    Some(bytes) => QueueReply::Item(bytes),
                    None => QueueReply::Empty,
                }
            }
            QueueRequest::Peek { .. } => QueueReply::Malformed, // never replicated
        }
    }

    fn read(queues: &QueueTable, req: &QueueRequest) -> Option<QueueReply> {
        match req {
            QueueRequest::Peek { queue } => Some(match queues.get(queue).and_then(|q| q.front()) {
                Some(item) => QueueReply::Item(item.clone()),
                None => QueueReply::Empty,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Typed client.
// ---------------------------------------------------------------------

/// Errors surfaced by [`QueueClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// The service has no majority (retry later).
    NoMajority,
    /// The service refused or mangled the request.
    Service,
    /// Transport failure.
    Rpc(RpcError),
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::NoMajority => f.write_str("queue service has no majority"),
            QueueError::Service => f.write_str("queue service refused the request"),
            QueueError::Rpc(e) => write!(f, "queue transport: {e}"),
        }
    }
}

impl std::error::Error for QueueError {}

/// Client stub for the queue service.
#[derive(Clone, Debug)]
pub struct QueueClient(ServiceClient<QueueService>);

impl From<ServiceClient<QueueService>> for QueueClient {
    fn from(client: ServiceClient<QueueService>) -> QueueClient {
        QueueClient(client)
    }
}

impl QueueClient {
    /// Creates a stub talking to the service through `rpc`.
    pub fn new(rpc: RpcClient) -> QueueClient {
        QueueClient(ServiceClient::new(rpc))
    }

    /// Appends `item` to the tail of `queue`.
    ///
    /// # Errors
    ///
    /// [`QueueError::NoMajority`] while the service is recovering.
    pub fn enqueue(&self, ctx: &Ctx, queue: &str, item: Vec<u8>) -> Result<(), QueueError> {
        let queue = queue.to_owned();
        let req = QueueRequest::Enqueue { queue, item };
        let reply = self.0.op(ctx, "cli.q.enqueue", &req);
        match reply.map_err(QueueError::Rpc)? {
            QueueReply::Ok => Ok(()),
            QueueReply::NoMajority => Err(QueueError::NoMajority),
            _ => Err(QueueError::Service),
        }
    }

    /// Removes and returns the head of `queue` (`None` if empty).
    ///
    /// # Errors
    ///
    /// [`QueueError::NoMajority`] while the service is recovering.
    pub fn dequeue(&self, ctx: &Ctx, queue: &str) -> Result<Option<Vec<u8>>, QueueError> {
        let queue = queue.to_owned();
        let req = QueueRequest::Dequeue { queue };
        let reply = self.0.op(ctx, "cli.q.dequeue", &req);
        match reply.map_err(QueueError::Rpc)? {
            QueueReply::Item(bytes) => Ok(Some(bytes)),
            QueueReply::Empty => Ok(None),
            QueueReply::NoMajority => Err(QueueError::NoMajority),
            _ => Err(QueueError::Service),
        }
    }

    /// Reads the head of `queue` without removing it.
    ///
    /// # Errors
    ///
    /// [`QueueError::NoMajority`] while the service is recovering.
    pub fn peek(&self, ctx: &Ctx, queue: &str) -> Result<Option<Vec<u8>>, QueueError> {
        let queue = queue.to_owned();
        let req = QueueRequest::Peek { queue };
        let reply = self.0.op(ctx, "cli.q.peek", &req);
        match reply.map_err(QueueError::Rpc)? {
            QueueReply::Item(bytes) => Ok(Some(bytes)),
            QueueReply::Empty => Ok(None),
            QueueReply::NoMajority => Err(QueueError::NoMajority),
            _ => Err(QueueError::Service),
        }
    }
}
