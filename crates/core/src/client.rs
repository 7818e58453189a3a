//! The client library: typed wrappers over the Fig. 2 operations, plus
//! the shard-routing layer.
//!
//! A [`DirClient`] talks either to a single service port (the classic
//! unsharded deployment, [`DirClient::new`]) or to a sharded deployment
//! ([`DirClient::sharded`]), in which case every operation is routed by
//! the [`ShardMap`]: ops on an existing directory go to the shard burned
//! into its capability's port, fresh root creates are placed
//! round-robin, and the cross-shard operations
//! ([`create_in`](DirClient::create_in) /
//! [`delete_from`](DirClient::delete_from)) run the deterministic
//! two-step protocol described in the [`crate::shard`] module docs.
//! With one shard the routed client is indistinguishable from the
//! classic one.
//!
//! Every capability-addressed call runs a **bounded re-resolve loop**:
//! the capability is first translated through the map's learned
//! relocation cache, and a [`DirReply::Moved`] answer (the directory
//! migrated, see the [`crate::shard`] docs) teaches the cache a new
//! hint and retries at the new location — so a shard hint going stale
//! mid-request (a migration racing the call) is chased, not surfaced
//! as a hard failure, and old capabilities keep working forever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amoeba_flip::wire::Wire;
use amoeba_flip::Port;
use amoeba_rpc::{RpcClient, RpcError};
use amoeba_sim::Ctx;
use amoeba_telemetry::Telemetry;

use crate::cache::{CacheStats, DirCache};
use crate::capability::Capability;
use crate::ops::{DirError, DirReply, DirRequest};
use crate::rights::Rights;
use crate::shard::ShardMap;

/// Most `Moved` hops a single call chases before reporting
/// [`DirClientError::Protocol`]. Real chains are as long as the number
/// of migrations a directory underwent since this client last saw it;
/// each hop is also cached, so a second call needs none.
const MAX_CHASE: usize = 8;

/// Most export → install → CAS rounds a [`DirClient::migrate`] runs
/// before giving up with [`DirError::Stale`] (each round lost means a
/// concurrent update landed — the directory is hot; back off and let
/// the caller retry).
const MAX_MIGRATE_ROUNDS: usize = 16;

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirClientError {
    /// The service reported a failure.
    Service(DirError),
    /// Transport failure (no server reachable).
    Rpc(RpcError),
    /// The server answered something unintelligible.
    Protocol,
}

impl std::fmt::Display for DirClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirClientError::Service(e) => write!(f, "directory service: {e}"),
            DirClientError::Rpc(e) => write!(f, "transport: {e}"),
            DirClientError::Protocol => f.write_str("malformed reply"),
        }
    }
}

impl std::error::Error for DirClientError {}

impl From<RpcError> for DirClientError {
    fn from(e: RpcError) -> Self {
        DirClientError::Rpc(e)
    }
}

impl From<DirError> for DirClientError {
    fn from(e: DirError) -> Self {
        DirClientError::Service(e)
    }
}

/// A listing returned by [`DirClient::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listing {
    /// Column names.
    pub columns: Vec<String>,
    /// (name, capability restricted to your effective rights, visible
    /// column masks).
    pub rows: Vec<(String, Capability, Vec<Rights>)>,
}

/// How requests map onto service ports.
#[derive(Debug)]
enum Route {
    /// Everything to one fixed port (unsharded, or a custom service).
    Single(Port),
    /// Per-shard ports through the shard map.
    Sharded(ShardMap),
}

/// A typed client for the directory service (any implementation).
#[derive(Debug, Clone)]
pub struct DirClient {
    rpc: RpcClient,
    route: Arc<Route>,
    /// Round-robin cursor for placing fresh root directories.
    next_create: Arc<AtomicUsize>,
    /// Lease-fenced local read cache (see [`crate::cache`]); `None`
    /// is the classic, behaviour-identical uncached client.
    cache: Option<DirCache>,
}

impl DirClient {
    /// Creates a client that locates servers of `service` through `rpc`
    /// (a single-group deployment).
    pub fn new(rpc: RpcClient, service: Port) -> DirClient {
        DirClient {
            rpc,
            route: Arc::new(Route::Single(service)),
            next_create: Arc::new(AtomicUsize::new(0)),
            cache: None,
        }
    }

    /// Creates a client for a directory service sharded `shards` ways
    /// (`1` is exactly the classic unsharded service).
    pub fn sharded(rpc: RpcClient, shards: usize) -> DirClient {
        DirClient {
            rpc,
            route: Arc::new(Route::Sharded(ShardMap::new(shards))),
            next_create: Arc::new(AtomicUsize::new(0)),
            cache: None,
        }
    }

    /// Attaches a lease-fenced read cache: lookups are served locally
    /// while their directory's lease holds (see [`crate::cache`] for
    /// the invariant). The cache's invalidation listener
    /// ([`crate::cache::start_invalidation_listener`]) **must** be
    /// running on this client's machine, or every write touching a
    /// cached directory stalls for a full lease expiry.
    #[must_use]
    pub fn with_cache(mut self, cache: DirCache) -> DirClient {
        self.cache = Some(cache);
        self
    }

    /// This client's cache counters, if a cache is attached.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(DirCache::stats)
    }

    /// Starts this client's root-placement round-robin at `offset`
    /// instead of shard 0. Round-robin state is per client object; a
    /// deployment spawning one client per machine should hand each a
    /// distinct offset (e.g. the machine index), or every machine's
    /// *first* create lands on shard 0 and re-creates the very
    /// single-sequencer hotspot sharding removes.
    #[must_use]
    pub fn with_create_offset(self, offset: usize) -> DirClient {
        self.next_create.store(offset, Ordering::Relaxed);
        self
    }

    /// The port serving the shard `cap` lives on. An unrecognized port
    /// falls back to shard 0, whose servers will answer
    /// `BadCapability` — the same answer a forged capability gets.
    fn port_of_cap(&self, cap: &Capability) -> Port {
        match &*self.route {
            Route::Single(p) => *p,
            Route::Sharded(m) => match m.shard_of_cap(cap) {
                Some(shard) => m.public_port(shard),
                None => m.public_port(0),
            },
        }
    }

    /// Where the next fresh root directory is placed (round-robin over
    /// the shards).
    fn create_port(&self) -> Port {
        match &*self.route {
            Route::Single(p) => *p,
            Route::Sharded(m) => {
                let k = self.next_create.fetch_add(1, Ordering::Relaxed);
                m.public_port(k % m.shards())
            }
        }
    }

    /// Wraps one public operation in a client span and a latency
    /// histogram observation (family = span name, e.g. `cli.create_in`).
    /// The span is a root when the process has no ambient trace context
    /// (the normal case) and a child when one composite public op (e.g.
    /// [`delete_from`](DirClient::delete_from)) calls another, so every
    /// top-level client call yields exactly one connected span tree.
    /// With telemetry disabled this is a plain call to `f`.
    fn op<T>(
        &self,
        ctx: &Ctx,
        name: &'static str,
        f: impl FnOnce() -> Result<T, DirClientError>,
    ) -> Result<T, DirClientError> {
        let tele = Telemetry::from_handle(&ctx.handle());
        if !tele.is_enabled() {
            return f();
        }
        let machine = u64::from(self.rpc.addr().0);
        let outer = amoeba_telemetry::current_ctx();
        let span = if outer.is_some() {
            tele.begin_child(name, machine, outer)
        } else {
            tele.begin_root(name, machine)
        };
        let prev = amoeba_telemetry::set_current_ctx(span);
        let start = ctx.now();
        let r = f();
        amoeba_telemetry::set_current_ctx(prev);
        tele.end(span);
        tele.observe_since(name, start);
        r
    }

    fn call(&self, ctx: &Ctx, port: Port, req: &DirRequest) -> Result<DirReply, DirClientError> {
        let bytes = self.rpc.trans(ctx, port, req.encode())?;
        DirReply::decode(&bytes).map_err(|_| DirClientError::Protocol)
    }

    fn expect_cap(
        &self,
        ctx: &Ctx,
        port: Port,
        req: &DirRequest,
    ) -> Result<Capability, DirClientError> {
        match self.call(ctx, port, req)? {
            DirReply::Cap(c) => Ok(c),
            DirReply::Err(e) => Err(e.into()),
            _ => Err(DirClientError::Protocol),
        }
    }

    /// Translates a capability through the learned relocation hints
    /// (identity on unsharded routes and unknown capabilities).
    fn resolve_cap(&self, cap: Capability) -> Capability {
        match &*self.route {
            Route::Single(_) => cap,
            Route::Sharded(m) => m.resolve(&cap),
        }
    }

    /// Records a forwarding hint learned from a [`DirReply::Moved`].
    /// Cached entries of the moved directory are dropped: its new home
    /// grants its own leases, and the old home's lease must not keep
    /// serving rows across the migration.
    fn learn(&self, from: (Port, u64), to: (Port, u64)) {
        if let Some(cache) = &self.cache {
            cache.forget(from.0.as_raw(), from.1);
        }
        if let Route::Sharded(m) = &*self.route {
            m.learn(from, to);
        }
    }

    /// Belt-and-braces drop after this client's own writes (the
    /// server's invalidation callback also covers them).
    fn forget_cached(&self, port: Port, object: u64) {
        if let Some(cache) = &self.cache {
            cache.forget(port.as_raw(), object);
        }
    }

    /// The bounded re-resolve loop every capability-addressed call runs:
    /// translate the capability through the relocation cache, rebuild
    /// the request with the translated capability (same rights and
    /// check — migration preserves the raw check), send, and on a
    /// `Moved` answer learn the hint and retry at the new location.
    /// Returns the final reply together with the capability it was
    /// produced for (the directory's current home).
    fn call_chasing(
        &self,
        ctx: &Ctx,
        cap: Capability,
        build: impl Fn(Capability) -> DirRequest,
    ) -> Result<(DirReply, Capability), DirClientError> {
        let mut cur = self.resolve_cap(cap);
        for _ in 0..MAX_CHASE {
            let port = self.port_of_cap(&cur);
            match self.call(ctx, port, &build(cur))? {
                DirReply::Moved {
                    object,
                    to_port,
                    to_object,
                } => {
                    // Only single-directory requests flow through here,
                    // so the moved object is `cur`'s; re-resolving from
                    // the original follows the now-extended chain.
                    self.learn((port, object), (Port::from_raw(to_port), to_object));
                    cur = self.resolve_cap(cap);
                }
                reply => return Ok((reply, cur)),
            }
        }
        Err(DirClientError::Protocol)
    }

    fn expect_ok_chasing(
        &self,
        ctx: &Ctx,
        cap: Capability,
        build: impl Fn(Capability) -> DirRequest,
    ) -> Result<(), DirClientError> {
        let (reply, cur) = self.call_chasing(ctx, cap, build)?;
        self.forget_cached(cur.port, cur.object);
        match reply {
            DirReply::Ok => Ok(()),
            DirReply::Err(e) => Err(e.into()),
            _ => Err(DirClientError::Protocol),
        }
    }

    /// Creates a directory; returns its owner capability. On a sharded
    /// deployment the directory is placed round-robin.
    ///
    /// # Errors
    ///
    /// Service errors ([`DirError`]) or transport failures.
    pub fn create_dir(&self, ctx: &Ctx, columns: &[&str]) -> Result<Capability, DirClientError> {
        let req = DirRequest::CreateDir {
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
        };
        self.op(ctx, "cli.create_dir", || {
            self.expect_cap(ctx, self.create_port(), &req)
        })
    }

    /// Creates a directory *and links it into `parent` under `name`* —
    /// the cross-shard two-step: an idempotent keyed create on the
    /// child's home shard (a stable hash of `(parent, name)`), then an
    /// idempotent link on the parent's shard. Retrying after any
    /// failure converges on exactly one child directory and one row;
    /// a name already linked to *another* directory of this service
    /// converges on that directory ("ensure a child exists at name"),
    /// while a row holding a foreign capability fails
    /// [`DirError::DuplicateName`].
    ///
    /// # Errors
    ///
    /// Service errors or transport failures; after a partial failure,
    /// retry the whole call.
    pub fn create_in(
        &self,
        ctx: &Ctx,
        parent: Capability,
        name: &str,
        columns: &[&str],
        col_rights: Vec<Rights>,
    ) -> Result<Capability, DirClientError> {
        self.op(ctx, "cli.create_in", || {
            self.create_in_inner(ctx, parent, name, columns, col_rights)
        })
    }

    fn create_in_inner(
        &self,
        ctx: &Ctx,
        parent: Capability,
        name: &str,
        columns: &[&str],
        col_rights: Vec<Rights>,
    ) -> Result<Capability, DirClientError> {
        let child_port = match &*self.route {
            Route::Single(p) => *p,
            Route::Sharded(m) => m.public_port(m.child_shard(&parent, name)),
        };
        // Step 1: keyed create on the child's home shard (idempotent).
        let child = self.expect_cap(
            ctx,
            child_port,
            &DirRequest::CreateKeyed {
                columns: columns.iter().map(|s| (*s).to_owned()).collect(),
                key: ShardMap::completion_key(&parent, name),
            },
        )?;
        // Step 2: link it into the parent (idempotent; chases the
        // parent's forwarding stubs if it migrated).
        match self.expect_ok_chasing(ctx, parent, |p| DirRequest::AppendLink {
            dir: p,
            name: name.to_owned(),
            cap: child,
            col_rights: col_rights.clone(),
        }) {
            Ok(()) => Ok(child),
            // The row already holds a *different* directory: converge
            // on it ("ensure a child directory linked at name"). This
            // is the recovery path for a completion record lost to a
            // whole-shard disk salvage — the retry's fresh child is
            // orphaned (storage leak, reclaimable) but the namespace
            // converges on the originally linked directory instead of
            // failing DuplicateName forever.
            Err(DirClientError::Service(DirError::DuplicateName)) => {
                match self.lookup(ctx, parent, name)? {
                    Some(existing)
                        if match &*self.route {
                            Route::Single(p) => existing.port == *p,
                            Route::Sharded(m) => m.shard_of_cap(&existing).is_some(),
                        } =>
                    {
                        Ok(existing)
                    }
                    // A foreign (non-directory) capability under that
                    // name is a genuine conflict.
                    _ => Err(DirError::DuplicateName.into()),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Deletes the row `name` of `parent` *and the directory it points
    /// to* — the cross-shard two-step mirror of
    /// [`create_in`](DirClient::create_in), child first: delete the
    /// child directory on its home shard (already-gone is success),
    /// then unlink the row (already-unlinked is success). A crash
    /// between the steps leaves a visible dangling row; retrying
    /// converges. The resolved child capability must carry
    /// [`Rights::ADMIN`] for the delete; rows holding foreign
    /// (non-directory-service) capabilities only lose their row.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures; after a partial failure,
    /// retry the whole call.
    pub fn delete_from(
        &self,
        ctx: &Ctx,
        parent: Capability,
        name: &str,
    ) -> Result<(), DirClientError> {
        self.op(ctx, "cli.delete_from", || {
            self.delete_from_inner(ctx, parent, name)
        })
    }

    fn delete_from_inner(
        &self,
        ctx: &Ctx,
        parent: Capability,
        name: &str,
    ) -> Result<(), DirClientError> {
        if let Some(child) = self.lookup(ctx, parent, name)? {
            let ours = match &*self.route {
                Route::Single(p) => child.port == *p,
                Route::Sharded(m) => m.shard_of_cap(&child).is_some(),
            };
            if ours {
                match self.delete_dir(ctx, child) {
                    Ok(()) => {}
                    // Already deleted by an earlier, partially failed
                    // attempt: converge.
                    Err(DirClientError::Service(DirError::BadCapability)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        self.expect_ok_chasing(ctx, parent, |p| DirRequest::Unlink {
            dir: p,
            name: name.to_owned(),
        })
    }

    /// Deletes a directory (needs [`Rights::ADMIN`]).
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn delete_dir(&self, ctx: &Ctx, cap: Capability) -> Result<(), DirClientError> {
        self.op(ctx, "cli.delete_dir", || {
            self.expect_ok_chasing(ctx, cap, |c| DirRequest::DeleteDir { cap: c })
        })
    }

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn list(&self, ctx: &Ctx, cap: Capability) -> Result<Listing, DirClientError> {
        self.op(ctx, "cli.list", || {
            match self
                .call_chasing(ctx, cap, |c| DirRequest::ListDir { cap: c })?
                .0
            {
                DirReply::Listing { columns, rows } => Ok(Listing {
                    columns,
                    rows: rows
                        .into_iter()
                        .map(|r| (r.name, r.cap, r.col_rights))
                        .collect(),
                }),
                DirReply::Err(e) => Err(e.into()),
                _ => Err(DirClientError::Protocol),
            }
        })
    }

    /// Appends a row (needs [`Rights::MODIFY`] on `dir`).
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn append_row(
        &self,
        ctx: &Ctx,
        dir: Capability,
        name: &str,
        cap: Capability,
        col_rights: Vec<Rights>,
    ) -> Result<(), DirClientError> {
        self.op(ctx, "cli.append_row", || {
            self.expect_ok_chasing(ctx, dir, |d| DirRequest::AppendRow {
                dir: d,
                name: name.to_owned(),
                cap,
                col_rights: col_rights.clone(),
            })
        })
    }

    /// Changes a row's per-column rights masks.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn chmod_row(
        &self,
        ctx: &Ctx,
        dir: Capability,
        name: &str,
        col_rights: Vec<Rights>,
    ) -> Result<(), DirClientError> {
        self.op(ctx, "cli.chmod_row", || {
            self.expect_ok_chasing(ctx, dir, |d| DirRequest::ChmodRow {
                dir: d,
                name: name.to_owned(),
                col_rights: col_rights.clone(),
            })
        })
    }

    /// Deletes a row.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn delete_row(&self, ctx: &Ctx, dir: Capability, name: &str) -> Result<(), DirClientError> {
        self.op(ctx, "cli.delete_row", || {
            self.expect_ok_chasing(ctx, dir, |d| DirRequest::DeleteRow {
                dir: d,
                name: name.to_owned(),
            })
        })
    }

    /// Looks up several (directory, name) pairs at once. On a sharded
    /// deployment the set is split per shard and the answers merged
    /// back into request order. With a cache attached
    /// ([`with_cache`](DirClient::with_cache)), items covered by a live
    /// lease are answered locally with zero packets; the misses are
    /// fetched one `FetchDir` per distinct directory, installing fresh
    /// leases along the way.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn lookup_set(
        &self,
        ctx: &Ctx,
        items: Vec<(Capability, String)>,
    ) -> Result<Vec<Option<Capability>>, DirClientError> {
        self.op(ctx, "cli.lookup", || match self.cache.clone() {
            Some(cache) => self.lookup_set_cached(ctx, &cache, items),
            None => self.lookup_set_uncached(ctx, items),
        })
    }

    /// The cached read path: split lease-covered hits from misses,
    /// answer the hits locally, fetch each missed directory once.
    fn lookup_set_cached(
        &self,
        ctx: &Ctx,
        cache: &DirCache,
        items: Vec<(Capability, String)>,
    ) -> Result<Vec<Option<Capability>>, DirClientError> {
        let now_us = ctx.now().as_nanos() / 1_000;
        let mut out = vec![None; items.len()];
        let mut missed: Vec<usize> = Vec::new();
        for (i, (cap, name)) in items.iter().enumerate() {
            let cur = self.resolve_cap(*cap);
            match cache.lookup(now_us, &cur, name) {
                Some(answer) => out[i] = answer,
                None => missed.push(i),
            }
        }
        if missed.is_empty() {
            return Ok(out);
        }
        // One fetch per distinct directory capability among the misses.
        let mut groups: Vec<(Capability, Vec<usize>)> = Vec::new();
        for &i in &missed {
            let cap = items[i].0;
            match groups.iter_mut().find(|(c, _)| *c == cap) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((cap, vec![i])),
            }
        }
        let mut fallback: Vec<(Capability, String)> = Vec::new();
        let mut fallback_idx: Vec<usize> = Vec::new();
        for (cap, idxs) in groups {
            let names: Vec<&str> = idxs.iter().map(|&i| items[i].1.as_str()).collect();
            match self.fetch_into_cache(ctx, cache, cap, &names)? {
                Some(answers) => {
                    for (i, answer) in idxs.into_iter().zip(answers) {
                        out[i] = answer;
                    }
                }
                // Uncacheable (the service refused the fetch, or a
                // revocation raced it): the plain read path answers
                // with the server's exact semantics.
                None => {
                    for i in idxs {
                        fallback_idx.push(i);
                        fallback.push(items[i].clone());
                    }
                }
            }
        }
        if !fallback.is_empty() {
            let answers = self.lookup_set_uncached(ctx, fallback)?;
            for (k, i) in fallback_idx.into_iter().enumerate() {
                out[i] = answers[k];
            }
        }
        Ok(out)
    }

    /// The cache-miss path: fetch a directory's visible rows plus a
    /// read lease (chasing `Moved` forwarding like every other call),
    /// look `names` up in them and install them. `Ok(None)` means the
    /// snapshot may not be served — the service refused the fetch (e.g.
    /// a bad capability, which the plain lookup path answers per-item)
    /// or its lease was revoked while in flight.
    fn fetch_into_cache(
        &self,
        ctx: &Ctx,
        cache: &DirCache,
        cap: Capability,
        names: &[&str],
    ) -> Result<Option<Vec<Option<Capability>>>, DirClientError> {
        let mut cur = self.resolve_cap(cap);
        for _ in 0..MAX_CHASE {
            let port = self.port_of_cap(&cur);
            // The revocation epoch is read before the request leaves:
            // an invalidation arriving while the fetch is in flight
            // makes the snapshot unservable (it may predate the
            // acknowledged write that revoked it).
            let epoch = cache.epoch(port.as_raw(), cur.object);
            let req = DirRequest::FetchDir {
                cap: cur,
                owner: cache.owner(),
                cb_port: cache.cb_port().as_raw(),
                ttl_us: cache.ttl_us(),
            };
            match self.call(ctx, port, &req)? {
                DirReply::Moved {
                    object,
                    to_port,
                    to_object,
                } => {
                    self.learn((port, object), (Port::from_raw(to_port), to_object));
                    cur = self.resolve_cap(cap);
                }
                DirReply::Snapshot {
                    seqno: _,
                    deadline_us,
                    renewed,
                    columns: _,
                    rows,
                } => {
                    if renewed {
                        cache.note_renewal_saved();
                    }
                    let now_us = ctx.now().as_nanos() / 1_000;
                    // Built once: the misses are answered from the map,
                    // then the cache takes it.
                    let map: HashMap<String, Capability> =
                        rows.into_iter().map(|r| (r.name, r.cap)).collect();
                    let answers = names.iter().map(|n| map.get(*n).copied()).collect();
                    let servable = cache.install(epoch, &cur, map, deadline_us, now_us);
                    return Ok(servable.then_some(answers));
                }
                DirReply::Err(_) => return Ok(None),
                _ => return Err(DirClientError::Protocol),
            }
        }
        Err(DirClientError::Protocol)
    }

    /// The uncached read path (and the cached path's fallback).
    fn lookup_set_uncached(
        &self,
        ctx: &Ctx,
        items: Vec<(Capability, String)>,
    ) -> Result<Vec<Option<Capability>>, DirClientError> {
        // Bounded re-resolve loop: a `Moved` answer for any item teaches
        // the relocation cache and redoes the grouping with the fresher
        // translations.
        'chase: for _ in 0..MAX_CHASE {
            let translated: Vec<(Capability, String)> = items
                .iter()
                .map(|(cap, name)| (self.resolve_cap(*cap), name.clone()))
                .collect();
            let mut groups: Vec<(Port, Vec<usize>)> = Vec::new();
            for (i, (cap, _)) in translated.iter().enumerate() {
                let port = self.port_of_cap(cap);
                match groups.iter_mut().find(|(p, _)| *p == port) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((port, vec![i])),
                }
            }
            let mut out = vec![None; items.len()];
            for (port, idxs) in groups {
                let sub: Vec<(Capability, String)> =
                    idxs.iter().map(|i| translated[*i].clone()).collect();
                match self.call(ctx, port, &DirRequest::LookupSet { items: sub })? {
                    DirReply::Caps(v) if v.len() == idxs.len() => {
                        for (k, i) in idxs.into_iter().enumerate() {
                            out[i] = v[k];
                        }
                    }
                    DirReply::Moved {
                        object,
                        to_port,
                        to_object,
                    } => {
                        self.learn((port, object), (Port::from_raw(to_port), to_object));
                        continue 'chase;
                    }
                    DirReply::Err(e) => return Err(e.into()),
                    _ => return Err(DirClientError::Protocol),
                }
            }
            return Ok(out);
        }
        Err(DirClientError::Protocol)
    }

    /// Looks up one name.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn lookup(
        &self,
        ctx: &Ctx,
        dir: Capability,
        name: &str,
    ) -> Result<Option<Capability>, DirClientError> {
        let mut v = self.lookup_set(ctx, vec![(dir, name.to_owned())])?;
        v.pop().ok_or(DirClientError::Protocol)
    }

    /// Replaces the capabilities in a set of rows. Indivisible within
    /// each shard; a set spanning shards is applied shard by shard (in
    /// shard-port order of first appearance) and is *convergent*, not
    /// atomic — a concurrent reader may observe a prefix.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn replace_set(
        &self,
        ctx: &Ctx,
        items: Vec<(Capability, String, Capability)>,
    ) -> Result<(), DirClientError> {
        self.op(ctx, "cli.replace_set", || {
            self.replace_set_inner(ctx, items)
        })
    }

    fn replace_set_inner(
        &self,
        ctx: &Ctx,
        items: Vec<(Capability, String, Capability)>,
    ) -> Result<(), DirClientError> {
        type Replacement = (Capability, String, Capability);
        // Same bounded re-resolve loop as `lookup_set`. Shard groups
        // already applied before a `Moved` round are re-applied —
        // ReplaceSet is idempotent (same capability into the same row).
        'chase: for _ in 0..MAX_CHASE {
            let translated: Vec<Replacement> = items
                .iter()
                .map(|(dir, name, cap)| (self.resolve_cap(*dir), name.clone(), *cap))
                .collect();
            let mut groups: Vec<(Port, Vec<Replacement>)> = Vec::new();
            for item in translated {
                let port = self.port_of_cap(&item.0);
                match groups.iter_mut().find(|(p, _)| *p == port) {
                    Some((_, sub)) => sub.push(item),
                    None => groups.push((port, vec![item])),
                }
            }
            for (port, sub) in groups {
                let touched: Vec<(Port, u64)> =
                    sub.iter().map(|(d, _, _)| (d.port, d.object)).collect();
                match self.call(ctx, port, &DirRequest::ReplaceSet { items: sub })? {
                    DirReply::Ok => {
                        for (p, o) in touched {
                            self.forget_cached(p, o);
                        }
                    }
                    DirReply::Moved {
                        object,
                        to_port,
                        to_object,
                    } => {
                        self.learn((port, object), (Port::from_raw(to_port), to_object));
                        continue 'chase;
                    }
                    DirReply::Err(e) => return Err(e.into()),
                    _ => return Err(DirClientError::Protocol),
                }
            }
            return Ok(());
        }
        Err(DirClientError::Protocol)
    }

    /// Moves a directory to another shard: the crash-convergent
    /// copy + tombstone two-step described in the [`crate::shard`]
    /// docs. Requires the **owner** capability; returns the directory's
    /// capability at its new home (old capabilities remain valid
    /// through the forwarding stub). Fails [`DirError::Stale`] if a
    /// sustained stream of concurrent updates wins every CAS round —
    /// retry later. Any partial failure (either shard or this
    /// coordinator crashing mid-way) leaves a retryable intermediate: a
    /// repeat call converges on the same copy via the migration key.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures; retry the whole call.
    pub fn migrate(
        &self,
        ctx: &Ctx,
        dir: Capability,
        target_shard: usize,
    ) -> Result<Capability, DirClientError> {
        self.op(ctx, "cli.migrate", || {
            self.migrate_inner(ctx, dir, target_shard)
        })
    }

    fn migrate_inner(
        &self,
        ctx: &Ctx,
        dir: Capability,
        target_shard: usize,
    ) -> Result<Capability, DirClientError> {
        let map = match &*self.route {
            Route::Sharded(m) if m.shards() > 1 => m.clone(),
            _ => return Err(DirClientError::Service(DirError::Malformed)),
        };
        if target_shard >= map.shards() {
            return Err(DirClientError::Service(DirError::Malformed));
        }
        let target_port = map.public_port(target_shard);
        for _ in 0..MAX_MIGRATE_ROUNDS {
            // Read the directory where it currently lives (chasing any
            // existing stubs), including its raw check and CAS seqno.
            let (reply, home) =
                self.call_chasing(ctx, dir, |c| DirRequest::ExportDir { cap: c })?;
            let (check, seqno, columns, rows) = match reply {
                DirReply::Export {
                    check,
                    seqno,
                    columns,
                    rows,
                } => (check, seqno, columns, rows),
                DirReply::Err(e) => return Err(e.into()),
                _ => return Err(DirClientError::Protocol),
            };
            let home = Capability::owner(home.port, home.object, check);
            if home.port == target_port {
                return Ok(home); // already (or meanwhile) at the target
            }
            // Step 1: keyed upsert of the dark copy on the target shard.
            let key = ShardMap::migration_key(&home, target_port);
            let installed = self.expect_cap(
                ctx,
                target_port,
                &DirRequest::InstallDir {
                    columns,
                    rows,
                    check,
                    key,
                },
            )?;
            // Step 2: CAS the tombstone + forwarding stub onto the
            // source. A concurrent update since the export fails it
            // `Stale` and the loop re-copies — nothing is lost.
            match self.call(
                ctx,
                home.port,
                &DirRequest::InstallStub {
                    dir: home,
                    to_port: installed.port.as_raw(),
                    to_object: installed.object,
                    expected_seqno: seqno,
                },
            )? {
                DirReply::Ok => {
                    self.forget_cached(home.port, home.object);
                    self.forget_cached(installed.port, installed.object);
                    map.learn((home.port, home.object), (installed.port, installed.object));
                    return Ok(installed);
                }
                DirReply::Err(DirError::Stale) => continue,
                DirReply::Moved {
                    object,
                    to_port,
                    to_object,
                } => {
                    // Another coordinator migrated it first: converge on
                    // the location it actually went to — and reclaim our
                    // now-unreferenced dark copy if it went elsewhere
                    // (same-shard races share one keyed copy and answer
                    // Ok above, so this is a genuinely foreign copy).
                    let to = (Port::from_raw(to_port), to_object);
                    map.learn((home.port, object), to);
                    if to != (installed.port, installed.object) {
                        let _ = self.call(
                            ctx,
                            installed.port,
                            &DirRequest::DeleteDir { cap: installed },
                        );
                    }
                    return Ok(Capability::owner(to.0, to.1, check));
                }
                DirReply::Err(e) => return Err(e.into()),
                _ => return Err(DirClientError::Protocol),
            }
        }
        Err(DirClientError::Service(DirError::Stale))
    }
}
