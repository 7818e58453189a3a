//! The lease-fenced client-side directory cache: the read path at
//! production scale.
//!
//! The paper's service answers every lookup with an RPC; at 98% read
//! traffic the wire and the server CPU are the read path's ceiling. This
//! module moves the hot read path into the client: a lookup miss sends
//! one [`FetchDir`](crate::ops::DirRequest::FetchDir) to the directory's
//! shard and receives the rows visible to the holder *plus a read
//! lease*; while the lease holds, `lookup`/`lookup_set` on that
//! directory are served from this cache with **zero packets**.
//!
//! ## The fencing invariant
//!
//! > A read is served locally **iff** its lease is live **iff** no
//! > acknowledged write has touched the directory since the lease was
//! > granted.
//!
//! The service maintains the right-hand side: lease grants are ordered
//! through the group like writes, so every replica knows every lease,
//! and any update — initiated at *any* replica — revokes the covering
//! leases **before the write is acknowledged** (see
//! [`start_group_server`](crate::start_group_server)): the initiator
//! sends an invalidation callback to every holder and an unreachable
//! holder's lease is waited out in full. The client maintains the left-hand side: an entry is
//! only served before its deadline, the invalidation listener drops
//! entries (and bumps a per-directory revocation epoch) the moment a
//! callback arrives, and a snapshot whose fetch raced a revocation —
//! the epoch moved while the `FetchDir` was in flight — is discarded
//! unserved.
//!
//! **Cold-start gap and its fence.** The lease table is replicated but
//! deliberately *not* durable (grants are never logged to disk or
//! NVRAM: replaying them would resurrect long-expired leases). A
//! replica booting from salvaged non-empty storage therefore fences
//! all write acknowledgements for one maximum lease duration
//! ([`DirParams::max_lease`](crate::DirParams)), by which time every
//! lease granted before the crash has provably expired; a replica that
//! instead catches up by snapshot installation inherits the live lease
//! table and lifts the fence.
//!
//! ## Renewal
//!
//! Renewal is lazy: a lookup that finds its entry inside the renewal
//! window (the last [`renew_guard`](CacheParams::renew_guard) of the
//! lease, widened by a per-client jitter derived from the machine
//! index — [`DirCache::with_renew_jitter`]) is counted as a renewal and
//! refetches, so a working set's leases are refreshed by its own
//! traffic instead of by a timer, and co-started clients don't renew in
//! lockstep.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amoeba_flip::wire::Wire;
use amoeba_flip::{Payload, Port};
use amoeba_rpc::{RpcNode, RpcServer};
use amoeba_sim::{NodeId, Spawn};
use parking_lot::Mutex;

use crate::capability::Capability;

/// Client-cache tunables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheParams {
    /// Lease duration to request per fetch. The service clamps it to
    /// its own [`DirParams::max_lease`](crate::DirParams).
    pub ttl: Duration,
    /// Base width of the lazy-renewal window at the end of each lease:
    /// a lookup landing inside it refetches instead of serving locally.
    pub renew_guard: Duration,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            ttl: Duration::from_millis(400),
            renew_guard: Duration::from_millis(60),
        }
    }
}

/// A point-in-time copy of one client's cache counters, reported next
/// to [`amoeba_rsm::ReplicaStats`] by the benchmarks. Every lookup is
/// counted exactly once: `hits + misses + renewals + stale_rejects` is
/// the total lookup count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served locally under a live lease (zero packets).
    pub hits: u64,
    /// Lookups with no cached entry (a `FetchDir` followed).
    pub misses: u64,
    /// Entries dropped by server invalidation callbacks (a write —
    /// possibly this client's own — touched the directory).
    pub invalidations: u64,
    /// Lookups that found their entry inside the renewal window and
    /// refetched early.
    pub renewals: u64,
    /// Lookups that found their entry past its lease deadline — the
    /// entry is rejected as stale and dropped, never served.
    pub stale_rejects: u64,
    /// Fetches answered off the service's read path under a piggybacked
    /// lease renewal — group rounds the renewal budget saved. Counted
    /// per fetch, not per lookup, so it sits outside the lookup
    /// identity above.
    pub renewals_saved: u64,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    renewals: AtomicU64,
    stale_rejects: AtomicU64,
    renewals_saved: AtomicU64,
}

/// Cache key: the full capability identity. Rights are part of the key
/// because the fetched rows are restricted to the fetching holder's
/// effective rights — two capabilities of different strength for the
/// same directory must not share an entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    port: u64,
    object: u64,
    check: u64,
    rights: u8,
}

impl Key {
    fn of(cap: &Capability) -> Key {
        Key {
            port: cap.port.as_raw(),
            object: cap.object,
            check: cap.check,
            rights: cap.rights.0,
        }
    }
}

/// One leased directory snapshot. `rows` holds only the rows visible to
/// the holder (invisible rows are omitted by the service), restricted
/// exactly as `LookupSet` would restrict them — so a local lookup is
/// answer-identical to the server's.
struct Entry {
    rows: HashMap<String, Capability>,
    deadline_us: u64,
    renew_at_us: u64,
}

struct Inner {
    params: CacheParams,
    cb_port: Port,
    /// Per-client renewal jitter (µs), derived from the machine index.
    jitter_us: AtomicU64,
    /// Lock order: `epochs` before `entries`, always.
    epochs: Mutex<HashMap<(u64, u64), u64>>,
    entries: Mutex<HashMap<Key, Entry>>,
    counters: Counters,
}

/// One client machine's directory cache. Clones share the same cache
/// (the [`DirClient`](crate::DirClient) and the invalidation listener
/// hold clones of one cache).
#[derive(Clone)]
pub struct DirCache {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DirCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DirCache(cb={:?})", self.inner.cb_port)
    }
}

impl DirCache {
    /// Creates a cache whose invalidation listener will answer on
    /// `cb_port` (unique per client machine; see
    /// [`start_invalidation_listener`]).
    pub fn new(params: CacheParams, cb_port: Port) -> DirCache {
        DirCache {
            inner: Arc::new(Inner {
                params,
                cb_port,
                jitter_us: AtomicU64::new(0),
                epochs: Mutex::new(HashMap::new()),
                entries: Mutex::new(HashMap::new()),
                counters: Counters::default(),
            }),
        }
    }

    /// Derives this client's renewal jitter from its machine index (the
    /// same idiom as
    /// [`DirClient::with_create_offset`](crate::DirClient::with_create_offset)):
    /// co-started clients caching the same hot directories would
    /// otherwise all renew in the same instant of every lease period.
    #[must_use]
    pub fn with_renew_jitter(self, index: usize) -> DirCache {
        let guard_us = self.inner.params.renew_guard.as_micros() as u64;
        let jitter = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % guard_us.max(1);
        self.inner.jitter_us.store(jitter, Ordering::Relaxed);
        self
    }

    /// The port the invalidation listener answers on.
    pub fn cb_port(&self) -> Port {
        self.inner.cb_port
    }

    /// This client's lease identity (grants upsert by owner).
    pub fn owner(&self) -> u64 {
        self.inner.cb_port.as_raw()
    }

    /// The lease duration to request, in simulated microseconds.
    pub fn ttl_us(&self) -> u64 {
        self.inner.params.ttl.as_micros() as u64
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.inner.counters;
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            invalidations: c.invalidations.load(Ordering::Relaxed),
            renewals: c.renewals.load(Ordering::Relaxed),
            stale_rejects: c.stale_rejects.load(Ordering::Relaxed),
            renewals_saved: c.renewals_saved.load(Ordering::Relaxed),
        }
    }

    /// Counts a fetch the service answered under a piggybacked renewal
    /// (`Snapshot { renewed: true, .. }`).
    pub(crate) fn note_renewal_saved(&self) {
        self.inner
            .counters
            .renewals_saved
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The current revocation epoch of a directory. Read **before**
    /// sending a `FetchDir`; [`install`](DirCache::install) refuses a
    /// snapshot whose epoch moved while the fetch was in flight.
    pub(crate) fn epoch(&self, port: u64, object: u64) -> u64 {
        self.inner
            .epochs
            .lock()
            .get(&(port, object))
            .copied()
            .unwrap_or(0)
    }

    /// Local lookup. Outer `None` means "not servable locally" (absent,
    /// in the renewal window, or past deadline) — fetch; inner value is
    /// the answer the server would give.
    pub(crate) fn lookup(
        &self,
        now_us: u64,
        cap: &Capability,
        name: &str,
    ) -> Option<Option<Capability>> {
        let key = Key::of(cap);
        let mut entries = self.inner.entries.lock();
        match entries.get(&key) {
            None => {
                self.inner.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(e) if now_us >= e.deadline_us => {
                entries.remove(&key);
                self.inner
                    .counters
                    .stale_rejects
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(e) if now_us >= e.renew_at_us => {
                // Still live (and kept — a failed refetch loses nothing),
                // but refresh proactively before the deadline hits.
                self.inner.counters.renewals.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(e) => {
                self.inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.rows.get(name).copied())
            }
        }
    }

    /// Installs a fetched snapshot, unless the directory's revocation
    /// epoch moved since `epoch0` was read (a write was acknowledged
    /// while the fetch was in flight — the snapshot may predate it and
    /// must not be served) or the lease is already past its deadline.
    /// Returns whether the snapshot may be served.
    pub(crate) fn install(
        &self,
        epoch0: u64,
        cap: &Capability,
        rows: HashMap<String, Capability>,
        deadline_us: u64,
        now_us: u64,
    ) -> bool {
        if deadline_us <= now_us {
            return false;
        }
        let epochs = self.inner.epochs.lock();
        if epochs
            .get(&(cap.port.as_raw(), cap.object))
            .copied()
            .unwrap_or(0)
            != epoch0
        {
            return false;
        }
        let guard = self.inner.params.renew_guard.as_micros() as u64
            + self.inner.jitter_us.load(Ordering::Relaxed);
        self.inner.entries.lock().insert(
            Key::of(cap),
            Entry {
                rows,
                deadline_us,
                renew_at_us: deadline_us.saturating_sub(guard),
            },
        );
        true
    }

    /// Server-driven invalidation: a write touched `(port, object)`.
    /// Bumps the revocation epoch and drops every entry of the
    /// directory (all rights variants).
    pub(crate) fn invalidate(&self, port: u64, object: u64) {
        let dropped = self.drop_dir(port, object);
        self.inner
            .counters
            .invalidations
            .fetch_add(dropped.max(1), Ordering::Relaxed);
    }

    /// Client-driven drop (own writes, `Moved` hints): the same epoch
    /// bump and entry drop as [`invalidate`](DirCache::invalidate),
    /// but not counted as a server-driven invalidation.
    pub(crate) fn forget(&self, port: u64, object: u64) {
        self.drop_dir(port, object);
    }

    fn drop_dir(&self, port: u64, object: u64) -> u64 {
        let mut epochs = self.inner.epochs.lock();
        *epochs.entry((port, object)).or_insert(0) += 1;
        let mut entries = self.inner.entries.lock();
        let before = entries.len();
        entries.retain(|k, _| !(k.port == port && k.object == object));
        (before - entries.len()) as u64
    }
}

/// Spawns the invalidation listener of one client machine: an RPC
/// server on the cache's callback port that drops cached entries the
/// moment a write's initiator revokes their lease. **Required** for any
/// client using a [`DirCache`] — a write's initiator waits for either
/// this listener's acknowledgement or full lease expiry before
/// acknowledging the write, so a cache without its listener stalls
/// every write that touches a directory it has cached.
pub fn start_invalidation_listener(
    spawner: &impl Spawn,
    sim_node: NodeId,
    rpc: &RpcNode,
    cache: &DirCache,
) {
    let srv = RpcServer::new(rpc, cache.cb_port());
    let cache = cache.clone();
    spawner.spawn_boxed(
        Some(sim_node),
        "dir-cache-inval",
        Box::new(move |ctx| {
            let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
            let machine = u64::from(srv.addr().0);
            loop {
                let incoming = srv.getreq(ctx);
                let span = tele.begin_child("cache.inval", machine, incoming.trace);
                // The callback is the directory's home `(port, object)`
                // as granted.
                if let Ok((port, object)) = <(Port, u64)>::decode(&incoming.data) {
                    cache.invalidate(port.as_raw(), object);
                }
                tele.end(span);
                srv.putrep(&incoming, Payload::empty());
            }
        }),
    );
}
