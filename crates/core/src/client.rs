//! The client library: typed wrappers over the Fig. 2 operations, plus
//! the shard-routing layer.
//!
//! A [`DirClient`] ([`DirClient::sharded`]) routes every operation
//! through the [`ShardMap`]: ops on an existing directory go to the shard
//! burned into its capability's port, and fresh creates are placed
//! round-robin. A directory is linked into a parent, on its shard or
//! another, as in the paper: [`create_dir`](DirClient::create_dir), then
//! [`append_row`](DirClient::append_row) into the parent.
//! With one shard every port is the classic unsharded service's.

use std::cell::Cell;
use std::rc::Rc;

use amoeba_flip::wire::Wire;
use amoeba_flip::Port;
use amoeba_rpc::{RpcClient, RpcError};
use amoeba_sim::Ctx;
use amoeba_telemetry::Telemetry;

use crate::cache::{CacheStats, DirCache};
use crate::capability::Capability;
use crate::ops::{DirError, DirReply, DirRequest, Fetched};
use crate::rights::Rights;
use crate::shard::ShardMap;

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

/// A typed client for the directory service (any implementation).
#[derive(Debug, Clone)]
pub struct DirClient {
    rpc: RpcClient,
    /// How requests map onto the shards' ports.
    map: Rc<ShardMap>,
    /// Round-robin cursor for placing fresh root directories.
    next_create: Rc<Cell<usize>>,
    /// Lease-fenced local read cache (see [`crate::cache`]); `None`
    /// is the classic, behaviour-identical uncached client.
    cache: Option<DirCache>,
}

impl DirClient {
    /// Creates a client for a directory service sharded `shards` ways
    /// (`1` is exactly the classic unsharded service).
    pub fn sharded(rpc: RpcClient, shards: usize) -> DirClient {
        DirClient {
            rpc,
            map: Rc::new(ShardMap::new(shards)),
            next_create: Rc::new(Cell::new(0)),
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
        self.next_create.set(offset);
        self
    }

    /// The port serving the shard `cap` lives on. An unrecognized port
    /// falls back to shard 0, whose servers will answer
    /// `BadCapability` — the same answer a forged capability gets.
    fn port_of_cap(&self, cap: &Capability) -> Port {
        self.map
            .public_port(self.map.shard_of_cap(cap).unwrap_or(0))
    }

    /// Where the next fresh root directory is placed (round-robin over
    /// the shards).
    fn create_port(&self) -> Port {
        let k = self.next_create.replace(self.next_create.get() + 1);
        self.map.public_port(k % self.map.shards())
    }

    /// Wraps one public operation in a root client span and a latency
    /// histogram observation (family = span name, e.g. `cli.append_row`),
    /// so every client call yields exactly one connected span tree.
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
        let span = tele.begin_root(name, machine);
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

    /// Belt-and-braces drop after this client's own writes (the
    /// server's invalidation callback also covers them).
    fn forget_cached(&self, port: Port, object: u64) {
        if let Some(cache) = &self.cache {
            cache.forget(port.as_raw(), object);
        }
    }

    /// Sends `req`, a write to the directory `dir`, to `dir`'s shard,
    /// and drops `dir` from the cache.
    fn expect_ok(
        &self,
        ctx: &Ctx,
        dir: Capability,
        req: &DirRequest,
    ) -> Result<(), DirClientError> {
        let reply = self.call(ctx, self.port_of_cap(&dir), req)?;
        self.forget_cached(dir.port, dir.object);
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

    /// Deletes a directory (needs [`Rights::ADMIN`]).
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn delete_dir(&self, ctx: &Ctx, cap: Capability) -> Result<(), DirClientError> {
        self.op(ctx, "cli.delete_dir", || {
            self.expect_ok(ctx, cap, &DirRequest::DeleteDir { cap })
        })
    }

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn list(&self, ctx: &Ctx, cap: Capability) -> Result<Listing, DirClientError> {
        self.op(ctx, "cli.list", || {
            match self.call(ctx, self.port_of_cap(&cap), &DirRequest::ListDir { cap })? {
                DirReply::Listing { columns, rows } => Ok(Listing {
                    columns,
                    rows: rows
                        .into_iter()
                        .map(|r| (r.name.to_string(), r.cap, r.col_rights.to_vec()))
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
            let append = DirRequest::AppendRow {
                dir,
                name: name.to_owned(),
                cap,
                col_rights,
            };
            self.expect_ok(ctx, dir, &append)
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
            let chmod = DirRequest::ChmodRow {
                dir,
                name: name.to_owned(),
                col_rights,
            };
            self.expect_ok(ctx, dir, &chmod)
        })
    }

    /// Deletes a row.
    ///
    /// # Errors
    ///
    /// Service errors or transport failures.
    pub fn delete_row(&self, ctx: &Ctx, dir: Capability, name: &str) -> Result<(), DirClientError> {
        self.op(ctx, "cli.delete_row", || {
            let delete = DirRequest::DeleteRow {
                dir,
                name: name.to_owned(),
            };
            self.expect_ok(ctx, dir, &delete)
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
            match cache.lookup(now_us, cap, name) {
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
    /// read lease, look `names` up in them and install them. `Ok(None)`
    /// means the snapshot may not be served — the service refused the
    /// fetch (e.g. a bad capability, which the plain lookup path answers
    /// per-item) or its lease was revoked while in flight.
    fn fetch_into_cache(
        &self,
        ctx: &Ctx,
        cache: &DirCache,
        cap: Capability,
        names: &[&str],
    ) -> Result<Option<Vec<Option<Capability>>>, DirClientError> {
        let port = self.port_of_cap(&cap);
        // The revocation epoch is read before the request leaves: an
        // invalidation arriving while the fetch is in flight makes the
        // snapshot unservable (it may predate the acknowledged write
        // that revoked it).
        let epoch = cache.epoch(port.as_raw(), cap.object);
        let have = cache.held_version(&cap);
        let req = DirRequest::FetchDir {
            cap,
            owner: cache.owner(),
            cb_port: cache.cb_port(),
            ttl_us: cache.ttl_us(),
            have,
        };
        let bytes = self.rpc.trans(ctx, port, req.encode())?;
        let now_us = ctx.now().as_nanos() / 1_000;
        match Fetched::decode(&bytes).map_err(|_| DirClientError::Protocol)? {
            Fetched::Snapshot {
                version,
                deadline_us,
                renewed,
                rows,
            } => {
                if renewed {
                    cache.note_renewal_saved();
                }
                // The misses are answered from the index, then the cache
                // takes it.
                let answers = names.iter().map(|n| rows.get(n)).collect();
                let servable = cache.install(epoch, &cap, rows, version, deadline_us, now_us);
                Ok(servable.then_some(answers))
            }
            Fetched::Reply(DirReply::Unchanged {
                deadline_us,
                renewed,
            }) => {
                if renewed {
                    cache.note_renewal_saved();
                }
                Ok(cache.revalidate(epoch, &cap, have, deadline_us, now_us, names))
            }
            Fetched::Reply(DirReply::Err(_)) => Ok(None),
            Fetched::Reply(_) => Err(DirClientError::Protocol),
        }
    }

    /// The uncached read path (and the cached path's fallback): one
    /// `LookupSet` per shard the items name.
    fn lookup_set_uncached(
        &self,
        ctx: &Ctx,
        items: Vec<(Capability, String)>,
    ) -> Result<Vec<Option<Capability>>, DirClientError> {
        let mut groups: Vec<(Port, Vec<usize>)> = Vec::new();
        for (i, (cap, _)) in items.iter().enumerate() {
            let port = self.port_of_cap(cap);
            match groups.iter_mut().find(|(p, _)| *p == port) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((port, vec![i])),
            }
        }
        let mut out = vec![None; items.len()];
        for (port, idxs) in groups {
            let sub: Vec<(Capability, String)> = idxs.iter().map(|i| items[*i].clone()).collect();
            match self.call(ctx, port, &DirRequest::LookupSet { items: sub })? {
                DirReply::Caps(v) if v.len() == idxs.len() => {
                    for (k, i) in idxs.into_iter().enumerate() {
                        out[i] = v[k];
                    }
                }
                DirReply::Err(e) => return Err(e.into()),
                _ => return Err(DirClientError::Protocol),
            }
        }
        Ok(out)
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
        let mut groups: Vec<(Port, Vec<Replacement>)> = Vec::new();
        for item in items {
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
                DirReply::Err(e) => return Err(e.into()),
                _ => return Err(DirClientError::Protocol),
            }
        }
        Ok(())
    }
}
