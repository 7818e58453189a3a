//! Reads, the read rule and leases: everything an initiator serves off
//! local state, and the grant it orders instead.

use std::rc::Rc;

use amoeba_flip::wire::{encode_with, Wire, WireWriter};
use amoeba_flip::{Payload, Port};
use amoeba_sim::Ctx;

use super::state::{validate_dir_cap, Shared};
use super::Applier;
use crate::capability::Capability;
use crate::directory::{put_row, Directory, Row, COLUMNS, ROWS};
use crate::ops::{put_snapshot_head, DirError, DirOp, DirReply, DirRequest};
use crate::rights::Rights;

/// Where in the total order a read is served: it must see every op up
/// to `target` (the read barrier's) and nothing a crash could still lose.
pub(crate) struct ReadAt<'a> {
    pub target: u64,
    /// Blocks until the batch holding the given group seq is published.
    pub publish: &'a dyn Fn(u64) -> Result<(), DirError>,
}

impl ReadAt<'static> {
    /// A read on a server without a replica driver, whose `unflushed`
    /// map stays empty: it never waits.
    pub(crate) const LOCAL: ReadAt<'static> = ReadAt {
        target: u64::MAX,
        publish: &|_| Ok(()),
    };
}

impl<'a> ReadAt<'a> {
    /// The same read placed after every op: it waits until no batch in
    /// flight has changed its directory.
    fn latest(&self) -> ReadAt<'a> {
        ReadAt {
            target: u64::MAX,
            publish: self.publish,
        }
    }
}

/// [`Applier::restrict_for_holder`] with the state already borrowed.
fn restrict_with(
    shared: &Shared,
    public_port: Port,
    stored: &Capability,
    eff: Rights,
) -> Capability {
    if stored.port == public_port {
        if let Some(entry) = shared.table.get(stored.object) {
            return Capability::issue(public_port, stored.object, entry.check, eff);
        }
    }
    *stored
}

/// The masks of the columns a holder with `rights` sees.
fn visible_masks(masks: &[Rights], rights: Rights) -> impl Iterator<Item = Rights> + Clone + '_ {
    masks
        .iter()
        .enumerate()
        .filter(move |(i, _)| rights.sees_column(*i))
        .map(|(_, m)| *m)
}

/// What the holder of `cap` is sent under a read lease ending at
/// `deadline_us`, as reply bytes. The lease covers the directory's
/// columns and the rows the holder can see, restricted exactly as
/// `LookupSet` would restrict them; rows the holder has no effective
/// rights over are omitted — a cached lookup of their name answers
/// `None`, just like the server would.
///
/// Their version is the FNV-1a digest of those bytes, so it names what
/// the holder keeps and nothing else: no counter of this replica's,
/// which a peer, or this replica after a crash, may have issued for
/// other contents. When it equals `have` (the holder's), the answer is
/// [`DirReply::Unchanged`]; else the [`DirReply::Snapshot`]. Written
/// straight from the shared version, so no restricted copy of a row is
/// ever built.
fn lease_reply(
    shared: &Shared,
    public_port: Port,
    dir: &Directory,
    cap: &Capability,
    have: u64,
    deadline_us: u64,
    renewed: bool,
) -> Payload {
    let visible = || {
        dir.rows().iter().filter_map(|row| {
            let eff = dir.effective_rights(row, cap.rights);
            (eff != Rights::NONE).then_some((row, eff))
        })
    };
    let n = visible().count();
    let put_leased = |w: &mut WireWriter| {
        COLUMNS.put(w, dir.columns().iter(), String::put);
        ROWS.put_n(w, n, visible(), |(row, eff), w| {
            let restricted = restrict_with(shared, public_port, &row.cap, eff);
            put_row(
                w,
                &row.name,
                &restricted,
                visible_masks(&row.col_rights, cap.rights),
            );
        });
    };
    let mut digest = WireWriter::digesting();
    put_leased(&mut digest);
    // 0 is the "none" a fetch names when it keeps nothing.
    let version = digest.digest().expect("a digesting writer").max(1);
    if version == have {
        let unchanged = DirReply::Unchanged {
            deadline_us,
            renewed,
        };
        return unchanged.encode();
    }
    encode_with(|w| {
        put_snapshot_head(w, version, deadline_us, renewed);
        put_leased(w);
    })
}

impl Applier {
    /// The read rule: blocks until `object` can be served at `at` —
    /// unchanged by the batch in flight, or changed only in its rows and
    /// only past the target, so its pre-batch version holds every op up
    /// to the target and nothing unflushed. Otherwise it waits for that
    /// batch's publish and looks again. The caller then validates and
    /// takes the [`version_at`](Self::version_at) without yielding.
    pub(crate) fn settle(&self, object: u64, at: &ReadAt) -> Result<(), DirError> {
        loop {
            let first = match self.shared.borrow_mut().unflushed.get(&object) {
                Some((first, before)) if *first <= at.target || before.is_none() => *first,
                _ => return Ok(()),
            };
            (at.publish)(first)?;
        }
    }

    /// [`settle`](Self::settle) over every directory `req` reads.
    pub(crate) fn settle_request(&self, req: &DirRequest, at: &ReadAt) -> Result<(), DirError> {
        match req {
            DirRequest::ListDir { cap } => self.settle(cap.object, at),
            DirRequest::LookupSet { items } => items
                .iter()
                .try_for_each(|(cap, _)| self.settle(cap.object, at)),
            _ => Ok(()),
        }
    }

    /// The version of a settled `object` a read serves: the one before
    /// the batch in flight edited its rows, else the current one.
    pub(crate) fn version_at(&self, ctx: &Ctx, object: u64) -> Result<Rc<Directory>, DirError> {
        let before = self.shared.borrow_mut().unflushed.get(&object).cloned();
        match before {
            Some((_, Some(dir))) => Ok(dir),
            _ => self.load_dir(ctx, object),
        }
    }

    /// Serves a read against local state (initiator thread, paper Fig. 5
    /// read path) at `at`: each directory is settled, then validated and
    /// read with no yield in between.
    pub(crate) fn serve_read(&self, ctx: &Ctx, req: &DirRequest, at: &ReadAt) -> DirReply {
        self.try_serve_read(ctx, req, at)
            .unwrap_or_else(DirReply::Err)
    }

    /// [`serve_read`](Self::serve_read), a refusal as its `Err`.
    fn try_serve_read(
        &self,
        ctx: &Ctx,
        req: &DirRequest,
        at: &ReadAt,
    ) -> Result<DirReply, DirError> {
        let port = self.cfg.public_port;
        match req {
            DirRequest::ListDir { cap } => {
                self.settle(cap.object, at)?;
                let object = validate_dir_cap(&self.shared.borrow(), port, cap, Rights::NONE)?;
                if !cap.rights.sees_any_column() {
                    return Err(DirError::NoPermission);
                }
                let dir = self.version_at(ctx, object)?;
                let rows = dir
                    .rows()
                    .iter()
                    .map(|row| {
                        let eff = dir.effective_rights(row, cap.rights);
                        Row {
                            name: row.name.clone(),
                            cap: self.restrict_for_holder(&row.cap, eff),
                            col_rights: visible_masks(&row.col_rights, cap.rights).collect(),
                        }
                    })
                    .collect();
                Ok(DirReply::Listing {
                    columns: dir.columns().to_vec(),
                    rows,
                })
            }
            DirRequest::LookupSet { items } => {
                let mut out = Vec::with_capacity(items.len());
                for (cap, name) in items {
                    self.settle(cap.object, at)?;
                    let object = validate_dir_cap(&self.shared.borrow(), port, cap, Rights::NONE);
                    let resolved = object
                        .ok()
                        .filter(|_| cap.rights.sees_any_column())
                        .and_then(|object| {
                            let dir = self.version_at(ctx, object).ok()?;
                            let row = dir.find(name)?;
                            let eff = dir.effective_rights(row, cap.rights);
                            (eff != Rights::NONE).then(|| self.restrict_for_holder(&row.cap, eff))
                        });
                    out.push(resolved);
                }
                Ok(DirReply::Caps(out))
            }
            _ => Err(DirError::Malformed),
        }
    }

    /// Restricts a stored capability to the holder's effective rights.
    /// Own-service capabilities are re-issued with a correct check field;
    /// foreign capabilities are returned as stored (only their service
    /// could recompute the check).
    fn restrict_for_holder(&self, stored: &Capability, eff: Rights) -> Capability {
        let shared = self.shared.borrow();
        restrict_with(&shared, self.cfg.public_port, stored, eff)
    }

    /// The latest deadline of `owner`'s registered lease on the
    /// directory `cap` names, if that lease is still worth serving a
    /// renewal off: live, and with at least half the requested TTL
    /// remaining (a nearly-expired successor
    /// would only buy the client an immediate refetch, so it takes the
    /// full grant round instead).
    fn renewable_lease(
        &self,
        shared: &Shared,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        ttl_us: u64,
    ) -> Option<u64> {
        let object = validate_dir_cap(shared, self.cfg.public_port, cap, Rights::NONE).ok()?;
        if !cap.rights.sees_any_column() {
            return None;
        }
        let now_us = ctx.now().as_nanos() / 1_000;
        let min_left = ttl_us.max(1).min(self.max_lease_us) / 2;
        shared
            .rleases
            .get(&object)?
            .iter()
            .filter(|l| l.owner == owner && l.deadline_us > now_us + min_left)
            .map(|l| l.deadline_us)
            .max()
    }

    /// Whether `owner` holds a [`renewable_lease`](Self::renewable_lease)
    /// on `cap`'s directory: the cheap pre-check of the piggybacked
    /// renewal fast path — the caller runs the read barrier before
    /// actually serving.
    pub fn has_renewable_lease(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        ttl_us: u64,
    ) -> bool {
        let shared = self.shared.borrow();
        self.renewable_lease(&shared, ctx, cap, owner, ttl_us)
            .is_some()
    }

    /// The piggybacked-renewal fast path of `FetchDir`: the holder still
    /// has a live registered lease on the directory (the write that
    /// revoked its previous lease reinstated a successor under the
    /// grant's renewal budget), so it is answered off the read path
    /// under that lease's deadline — no group round, no new grant. The
    /// caller has already drained the read barrier, so the local state
    /// is at least as new as any acknowledged write; the lease and the
    /// rows are read once no batch in flight has changed the directory,
    /// so they agree. Returns `None` when the lease vanished since the
    /// pre-check (expired, revoked without budget) or the
    /// wait was aborted; the caller falls back to the full `GrantRead`
    /// round.
    pub(crate) fn serve_renewed_fetch(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        ttl_us: u64,
        have: u64,
        at: &ReadAt,
    ) -> Option<Payload> {
        self.settle(cap.object, &at.latest()).ok()?;
        let deadline_us = self.renewable_lease(&self.shared.borrow(), ctx, cap, owner, ttl_us)?;
        self.lease_answer(ctx, cap, have, deadline_us, true).ok()
    }

    /// What the holder of `cap` is sent under a lease that runs until
    /// `deadline_us`, renewed or granted: its [`lease_reply`]. The caller has settled the directory, so the current
    /// version holds nothing the batch in flight could still lose;
    /// nothing here yields but the load of a cold directory.
    pub(crate) fn lease_answer(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        have: u64,
        deadline_us: u64,
        renewed: bool,
    ) -> Result<Payload, DirError> {
        let port = self.cfg.public_port;
        validate_dir_cap(&self.shared.borrow(), port, cap, Rights::NONE)?;
        let dir = self.load_dir(ctx, cap.object)?;
        let shared = self.shared.borrow();
        Ok(lease_reply(
            &shared,
            port,
            &dir,
            cap,
            have,
            deadline_us,
            renewed,
        ))
    }

    /// Initiator-side translation of a `FetchDir` into the `GrantRead`
    /// op that registers the holder's lease, and the deadline it grants.
    pub(crate) fn prepare_grant(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        cb_port: Port,
        ttl_us: u64,
    ) -> Result<(DirOp, u64), DirError> {
        let port = self.cfg.public_port;
        validate_dir_cap(&self.shared.borrow(), port, cap, Rights::NONE)?;
        if !cap.rights.sees_any_column() {
            return Err(DirError::NoPermission);
        }
        // The grant's clock is fixed here, by the initiator, and carried
        // in the op: simulated time is global, so every replica applies
        // the same deadline — apply itself never reads a clock.
        let now_us = ctx.now().as_nanos() / 1_000;
        let deadline_us = now_us + ttl_us.max(1).min(self.max_lease_us);
        let grant = DirOp::GrantRead {
            cap: *cap,
            owner,
            cb_port,
            now_us,
            deadline_us,
        };
        Ok((grant, deadline_us))
    }
}
