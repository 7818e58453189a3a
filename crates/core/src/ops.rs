//! The directory-service wire protocol: the Fig. 2 operations, their
//! replies, and the internal replicated-op representation.

use amoeba_flip::wire::{Counted, DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Payload;

use crate::cache::NameIndex;
use crate::capability::Capability;
use crate::directory::{Row, COLUMNS, MASKS, ROWS};
use crate::rights::Rights;

/// A client request: exactly the operations of the paper's Fig. 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirRequest {
    /// Create a new directory with the given protection columns.
    CreateDir {
        /// Column (protection-domain) names, 1–4.
        columns: Vec<String>,
    },
    /// Delete a directory.
    DeleteDir {
        /// The directory (needs [`Rights::ADMIN`]).
        cap: Capability,
    },
    /// List a directory's rows (restricted to the visible columns).
    ListDir {
        /// The directory (needs at least one column right).
        cap: Capability,
    },
    /// Add a row.
    AppendRow {
        /// The directory (needs [`Rights::MODIFY`]).
        dir: Capability,
        /// New row name.
        name: String,
        /// Capability to store.
        cap: Capability,
        /// Per-column rights masks.
        col_rights: Vec<Rights>,
    },
    /// Change a row's per-column rights masks.
    ChmodRow {
        /// The directory (needs [`Rights::MODIFY`]).
        dir: Capability,
        /// Row name.
        name: String,
        /// New masks.
        col_rights: Vec<Rights>,
    },
    /// Delete a row.
    DeleteRow {
        /// The directory (needs [`Rights::MODIFY`]).
        dir: Capability,
        /// Row name.
        name: String,
    },
    /// Look up capabilities for a set of (directory, name) pairs in one
    /// request.
    LookupSet {
        /// The pairs to resolve.
        items: Vec<(Capability, String)>,
    },
    /// Replace the capabilities in a set of rows, indivisibly.
    ReplaceSet {
        /// (directory, name, new capability) triples.
        items: Vec<(Capability, String, Capability)>,
    },
    /// Create a directory idempotently: a repeat carrying the same key
    /// returns the originally created directory's capability (step one
    /// of the cross-shard create protocol, see [`crate::ShardMap`]).
    CreateKeyed {
        /// Column (protection-domain) names, 1–4.
        columns: Vec<String>,
        /// Completion key ([`crate::ShardMap::completion_key`]).
        key: u64,
    },
    /// Add a row idempotently: succeeds silently if the row already
    /// holds exactly `cap` (step two of the cross-shard create).
    AppendLink {
        /// The directory (needs [`Rights::MODIFY`]).
        dir: Capability,
        /// Row name.
        name: String,
        /// Capability to store.
        cap: Capability,
        /// Per-column rights masks.
        col_rights: Vec<Rights>,
    },
    /// Delete a row idempotently: succeeds silently if the row is
    /// already gone (step two of the cross-shard delete).
    Unlink {
        /// The directory (needs [`Rights::MODIFY`]).
        dir: Capability,
        /// Row name.
        name: String,
    },
    /// Read a directory's complete contents — including the raw check
    /// field — for migration to another shard. Requires the **owner**
    /// capability ([`Rights::ALL`]): the owner's check field already
    /// *is* the raw check, so nothing is leaked that the caller does
    /// not hold.
    ExportDir {
        /// The directory (needs [`Rights::ALL`]).
        cap: Capability,
    },
    /// Install a full directory under a migration key (step one of the
    /// migration two-step, see [`crate::shard`]): idempotent *upsert* —
    /// a repeat with the same key replaces the earlier copy's contents
    /// and answers with the same capability. The copy is dark until a
    /// forwarding stub on the source shard points at it.
    InstallDir {
        /// Column (protection-domain) names, 1–4.
        columns: Vec<String>,
        /// Full rows.
        rows: Vec<Row>,
        /// The source directory's raw check, preserved so relocated
        /// capabilities validate unchanged at the target.
        check: u64,
        /// Migration key ([`crate::ShardMap::migration_key`]).
        key: u64,
    },
    /// Atomically replace a directory with a tombstone + forwarding
    /// stub (step two of the migration two-step). Conditional on the
    /// directory's sequence number: an update ordered between the
    /// export and this op fails it with [`DirError::Stale`], and the
    /// coordinator re-copies — no acknowledged update is ever dropped.
    InstallStub {
        /// The directory (needs [`Rights::ALL`]).
        dir: Capability,
        /// Raw port of the shard the directory moved to.
        to_port: u64,
        /// Object number at the target shard.
        to_object: u64,
        /// The directory seqno the exported copy reflects.
        expected_seqno: u64,
    },
    /// Fetch a directory's visible rows **plus a read lease** over them
    /// (the client-cache miss path, see [`crate::cache`]). Although it
    /// mutates no rows, it is deliberately *not* classified as a read:
    /// the grant must be ordered through the group so that every
    /// replica knows about the lease and any later write — initiated at
    /// any replica — revokes it before being acknowledged.
    FetchDir {
        /// The directory (needs at least one column right).
        cap: Capability,
        /// The requesting client's unique cache identity.
        owner: u64,
        /// Raw port the client's invalidation listener answers on.
        cb_port: u64,
        /// Requested lease duration in simulated microseconds; the
        /// service clamps it to its configured maximum.
        ttl_us: u64,
        /// The [`version`](DirReply::Snapshot::version) of the snapshot
        /// the holder still keeps, 0 for none. While the holder would
        /// be sent the same contents again, the service renews the lease
        /// with [`DirReply::Unchanged`] instead of re-sending them.
        have: u64,
    },
}

/// A reply from the directory service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirReply {
    /// New directory's owner capability.
    Cap(Capability),
    /// Mutation done.
    Ok,
    /// Directory listing.
    Listing {
        /// Column names.
        columns: Vec<String>,
        /// Rows with the capability restricted to the holder's effective
        /// rights and only the visible columns' masks.
        rows: Vec<Row>,
    },
    /// LookupSet results, in request order.
    Caps(Vec<Option<Capability>>),
    /// The addressed directory migrated to another shard: the holder
    /// should retry there with the translated capability (same rights
    /// and check — migration preserves the raw check — new port and
    /// object). For set requests, `object` names which of the request's
    /// directories moved.
    Moved {
        /// The object number the request addressed (at this shard).
        object: u64,
        /// Raw port of the shard the directory now lives on.
        to_port: u64,
        /// Object number at that shard.
        to_object: u64,
    },
    /// A leased directory snapshot ([`DirRequest::FetchDir`]): the rows
    /// visible to the holder, good for local serving until
    /// `deadline_us` or an invalidation callback, whichever is first.
    Snapshot {
        /// The digest of the columns and rows as encoded here (never 0):
        /// it names what the holder keeps, whichever replica sent it,
        /// so equal versions mean equal contents.
        version: u64,
        /// Absolute simulated-time deadline (µs since simulation
        /// start) after which the lease — and the snapshot — is dead.
        deadline_us: u64,
        /// `true` when this snapshot was served off the read path under
        /// a piggybacked lease renewal (the revoking write reinstated
        /// the holder's lease, so no group round ran for this fetch).
        renewed: bool,
        /// Column names.
        columns: Vec<String>,
        /// Rows restricted as `ListDir` restricts them: the capability
        /// to the holder's effective rights, the masks to the visible
        /// columns.
        rows: Vec<Row>,
    },
    /// A renewed lease over the snapshot the holder already keeps: the
    /// [`DirRequest::FetchDir`] named the version of exactly the contents
    /// it would be sent now, so they are not sent again (Gray &
    /// Cheriton's revalidation).
    Unchanged {
        /// The renewed lease's absolute deadline, as in
        /// [`Snapshot`](Self::Snapshot).
        deadline_us: u64,
        /// Served under a piggybacked renewal, as in
        /// [`Snapshot`](Self::Snapshot).
        renewed: bool,
    },
    /// A directory's full contents ([`DirRequest::ExportDir`]).
    Export {
        /// The directory's raw check field.
        check: u64,
        /// Sequence number of the directory's last change (the
        /// migration CAS token).
        seqno: u64,
        /// Column names.
        columns: Vec<String>,
        /// Full rows, with the stored capabilities.
        rows: Vec<Row>,
    },
    /// The operation failed.
    Err(DirError),
}

/// Failures the service reports to clients. The discriminant is the
/// error's wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DirError {
    /// Fewer than a majority of servers are up (paper §3.1: even reads
    /// are refused).
    NoMajority = 1,
    /// Unknown object or forged check field.
    BadCapability = 2,
    /// The capability lacks the needed right.
    NoPermission = 3,
    /// AppendRow of an existing name.
    DuplicateName = 4,
    /// No row with that name.
    NoSuchName = 5,
    /// Rights-mask count does not match the column count.
    ColumnMismatch = 6,
    /// Malformed request.
    Malformed = 7,
    /// Internal failure (storage layer).
    Internal = 8,
    /// A conditional operation's expected sequence number no longer
    /// matches (a concurrent update won the race): re-read and retry.
    Stale = 9,
}

impl DirError {
    /// Every error: the codes a reply decodes.
    const ALL: [DirError; 9] = [
        DirError::NoMajority,
        DirError::BadCapability,
        DirError::NoPermission,
        DirError::DuplicateName,
        DirError::NoSuchName,
        DirError::ColumnMismatch,
        DirError::Malformed,
        DirError::Internal,
        DirError::Stale,
    ];
}

impl std::fmt::Display for DirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DirError::NoMajority => "service does not have a majority of servers up",
            DirError::BadCapability => "bad capability",
            DirError::NoPermission => "capability lacks the required right",
            DirError::DuplicateName => "name already present",
            DirError::NoSuchName => "no such name",
            DirError::ColumnMismatch => "rights mask count differs from column count",
            DirError::Malformed => "malformed request",
            DirError::Internal => "internal storage failure",
            DirError::Stale => "expected sequence number no longer matches",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DirError {}

/// The replicated operation: what actually travels through
/// `SendToGroup`. Unlike [`DirRequest`], a create carries the check field
/// generated by the initiator (paper §3.1: "all the servers must use the
/// same check field"), and directories are named by object number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirOp {
    /// Create a directory; every replica assigns the same object number
    /// deterministically at apply time.
    Create {
        /// Column names.
        columns: Vec<String>,
        /// The raw check field chosen by the initiator.
        check: u64,
    },
    /// Delete a directory.
    Delete {
        /// Object number.
        object: u64,
    },
    /// Append a row.
    Append {
        /// Directory object number.
        object: u64,
        /// Row name.
        name: String,
        /// Stored capability.
        cap: Capability,
        /// Per-column masks.
        col_rights: Vec<Rights>,
    },
    /// Change masks.
    Chmod {
        /// Directory object number.
        object: u64,
        /// Row name.
        name: String,
        /// New masks.
        col_rights: Vec<Rights>,
    },
    /// Delete a row.
    DeleteRow {
        /// Directory object number.
        object: u64,
        /// Row name.
        name: String,
    },
    /// Replace capabilities in a set of rows, indivisibly.
    ReplaceSet {
        /// (object, name, new capability) triples.
        items: Vec<(u64, String, Capability)>,
    },
    /// Idempotent create: if a completion record for `key` exists, the
    /// original directory's capability is returned and no state
    /// changes; otherwise creates like [`Create`](Self::Create) and
    /// records `key → object`.
    CreateKeyed {
        /// Column names.
        columns: Vec<String>,
        /// The raw check field chosen by the initiator (only used when
        /// the key is new).
        check: u64,
        /// Completion key.
        key: u64,
    },
    /// Idempotent append: a row already holding exactly `cap` is
    /// success; a row holding anything else is `DuplicateName`.
    AppendLink {
        /// Directory object number.
        object: u64,
        /// Row name.
        name: String,
        /// Stored capability.
        cap: Capability,
        /// Per-column masks.
        col_rights: Vec<Rights>,
    },
    /// Idempotent row delete: a missing row (or a deleted directory) is
    /// success.
    Unlink {
        /// Directory object number.
        object: u64,
        /// Row name.
        name: String,
    },
    /// Migration step one: install a full directory copy keyed for
    /// idempotent *upsert* — a replay with the same key replaces the
    /// earlier copy's contents and answers with the same capability.
    InstallDir {
        /// Column names.
        columns: Vec<String>,
        /// Full rows, with the stored capabilities.
        rows: Vec<Row>,
        /// The source directory's raw check, carried verbatim.
        check: u64,
        /// Migration key.
        key: u64,
    },
    /// Migration step two: replace the directory with a tombstone +
    /// forwarding stub, conditional on its sequence number.
    InstallStub {
        /// Directory object number.
        object: u64,
        /// Raw port of the target shard.
        to_port: u64,
        /// Object number at the target shard.
        to_object: u64,
        /// The seqno the exported copy reflects (CAS token).
        expected_seqno: u64,
    },
    /// Grant a read lease over a directory and answer with a snapshot
    /// of its visible rows. Ordered like a write so the replicated
    /// lease table stays identical on every replica; the timestamps are
    /// chosen by the initiator (simulated time is global) so apply
    /// stays deterministic. Mutates no rows and produces no disk
    /// effects.
    GrantRead {
        /// The holder's capability (rights drive the row restriction;
        /// the check is re-validated at apply time).
        cap: Capability,
        /// The requesting client's unique cache identity.
        owner: u64,
        /// Raw port of the client's invalidation listener.
        cb_port: u64,
        /// Simulated time (µs) at the initiator, used to prune expired
        /// leases deterministically.
        now_us: u64,
        /// Absolute lease deadline (µs), already clamped to the
        /// service's maximum TTL.
        deadline_us: u64,
    },
}

const RQ_CREATE: u8 = 1;
const RQ_DELETE: u8 = 2;
const RQ_LIST: u8 = 3;
const RQ_APPEND: u8 = 4;
const RQ_CHMOD: u8 = 5;
const RQ_DELROW: u8 = 6;
const RQ_LOOKUP_SET: u8 = 7;
const RQ_REPLACE_SET: u8 = 8;
const RQ_CREATE_KEYED: u8 = 9;
const RQ_APPEND_LINK: u8 = 10;
const RQ_UNLINK: u8 = 11;
const RQ_EXPORT: u8 = 12;
const RQ_INSTALL_DIR: u8 = 13;
const RQ_INSTALL_STUB: u8 = 14;
const RQ_FETCH_DIR: u8 = 15;

/// The items of a set request, reply or op: a `u32` count of at most
/// 10,000.
const SET: Counted = Counted::u32(10_000, "set items");

impl Wire for DirRequest {
    fn put(&self, w: &mut WireWriter) {
        match self {
            DirRequest::CreateDir { columns } => {
                w.u8(RQ_CREATE);
                COLUMNS.put(w, columns, String::put);
            }
            DirRequest::DeleteDir { cap } => {
                w.u8(RQ_DELETE);
                cap.put(w);
            }
            DirRequest::ListDir { cap } => {
                w.u8(RQ_LIST);
                cap.put(w);
            }
            DirRequest::AppendRow {
                dir,
                name,
                cap,
                col_rights,
            } => {
                w.u8(RQ_APPEND);
                dir.put(w);
                w.string(name);
                cap.put(w);
                MASKS.put(w, col_rights, Rights::put);
            }
            DirRequest::ChmodRow {
                dir,
                name,
                col_rights,
            } => {
                w.u8(RQ_CHMOD);
                dir.put(w);
                w.string(name);
                MASKS.put(w, col_rights, Rights::put);
            }
            DirRequest::DeleteRow { dir, name } => {
                w.u8(RQ_DELROW);
                dir.put(w);
                w.string(name);
            }
            DirRequest::LookupSet { items } => {
                w.u8(RQ_LOOKUP_SET);
                SET.put(w, items, <(Capability, String)>::put);
            }
            DirRequest::ReplaceSet { items } => {
                w.u8(RQ_REPLACE_SET);
                SET.put(w, items, <(Capability, String, Capability)>::put);
            }
            DirRequest::CreateKeyed { columns, key } => {
                w.u8(RQ_CREATE_KEYED);
                COLUMNS.put(w, columns, String::put);
                w.u64(*key);
            }
            DirRequest::AppendLink {
                dir,
                name,
                cap,
                col_rights,
            } => {
                w.u8(RQ_APPEND_LINK);
                dir.put(w);
                w.string(name);
                cap.put(w);
                MASKS.put(w, col_rights, Rights::put);
            }
            DirRequest::Unlink { dir, name } => {
                w.u8(RQ_UNLINK);
                dir.put(w);
                w.string(name);
            }
            DirRequest::ExportDir { cap } => {
                w.u8(RQ_EXPORT);
                cap.put(w);
            }
            DirRequest::InstallDir {
                columns,
                rows,
                check,
                key,
            } => {
                w.u8(RQ_INSTALL_DIR);
                COLUMNS.put(w, columns, String::put);
                ROWS.put(w, rows, Row::put);
                w.u64(*check).u64(*key);
            }
            DirRequest::InstallStub {
                dir,
                to_port,
                to_object,
                expected_seqno,
            } => {
                w.u8(RQ_INSTALL_STUB);
                dir.put(w);
                w.u64(*to_port).u64(*to_object).u64(*expected_seqno);
            }
            DirRequest::FetchDir {
                cap,
                owner,
                cb_port,
                ttl_us,
                have,
            } => {
                w.u8(RQ_FETCH_DIR);
                cap.put(w);
                w.u64(*owner).u64(*cb_port).u64(*ttl_us).u64(*have);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<DirRequest, DecodeError> {
        Ok(match r.u8("dir req tag")? {
            RQ_CREATE => DirRequest::CreateDir {
                columns: COLUMNS.get(r, String::get)?,
            },
            RQ_DELETE => DirRequest::DeleteDir {
                cap: Capability::get(r)?,
            },
            RQ_LIST => DirRequest::ListDir {
                cap: Capability::get(r)?,
            },
            RQ_APPEND => DirRequest::AppendRow {
                dir: Capability::get(r)?,
                name: r.string("name")?,
                cap: Capability::get(r)?,
                col_rights: MASKS.get(r, Rights::get)?,
            },
            RQ_CHMOD => DirRequest::ChmodRow {
                dir: Capability::get(r)?,
                name: r.string("name")?,
                col_rights: MASKS.get(r, Rights::get)?,
            },
            RQ_DELROW => DirRequest::DeleteRow {
                dir: Capability::get(r)?,
                name: r.string("name")?,
            },
            RQ_LOOKUP_SET => DirRequest::LookupSet {
                items: SET.get(r, <(Capability, String)>::get)?,
            },
            RQ_REPLACE_SET => DirRequest::ReplaceSet {
                items: SET.get(r, <(Capability, String, Capability)>::get)?,
            },
            RQ_CREATE_KEYED => DirRequest::CreateKeyed {
                columns: COLUMNS.get(r, String::get)?,
                key: r.u64("create key")?,
            },
            RQ_APPEND_LINK => DirRequest::AppendLink {
                dir: Capability::get(r)?,
                name: r.string("name")?,
                cap: Capability::get(r)?,
                col_rights: MASKS.get(r, Rights::get)?,
            },
            RQ_UNLINK => DirRequest::Unlink {
                dir: Capability::get(r)?,
                name: r.string("name")?,
            },
            RQ_EXPORT => DirRequest::ExportDir {
                cap: Capability::get(r)?,
            },
            RQ_INSTALL_DIR => DirRequest::InstallDir {
                columns: COLUMNS.get(r, String::get)?,
                rows: ROWS.get(r, Row::get)?,
                check: r.u64("install check")?,
                key: r.u64("install key")?,
            },
            RQ_INSTALL_STUB => DirRequest::InstallStub {
                dir: Capability::get(r)?,
                to_port: r.u64("stub port")?,
                to_object: r.u64("stub object")?,
                expected_seqno: r.u64("stub seqno")?,
            },
            RQ_FETCH_DIR => DirRequest::FetchDir {
                cap: Capability::get(r)?,
                owner: r.u64("fetch owner")?,
                cb_port: r.u64("fetch cb port")?,
                ttl_us: r.u64("fetch ttl")?,
                have: r.u64("fetch have")?,
            },
            _ => return Err(DecodeError::new("dir req tag")),
        })
    }
}

impl DirRequest {
    /// Whether this operation only reads (paper: 98% of traffic).
    /// `ExportDir` is a read: the migration CAS (`InstallStub`'s
    /// expected seqno) makes any replica-local staleness safe.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            DirRequest::ListDir { .. }
                | DirRequest::LookupSet { .. }
                | DirRequest::ExportDir { .. }
        )
    }
}

const RP_CAP: u8 = 1;
const RP_OK: u8 = 2;
const RP_LISTING: u8 = 3;
const RP_CAPS: u8 = 4;
const RP_ERR: u8 = 5;
const RP_MOVED: u8 = 6;
const RP_EXPORT: u8 = 7;
const RP_SNAPSHOT: u8 = 8;
const RP_UNCHANGED: u8 = 9;

/// One byte, the error's discriminant.
impl Wire for DirError {
    fn put(&self, w: &mut WireWriter) {
        w.u8(*self as u8);
    }

    fn get(r: &mut WireReader<'_>) -> Result<DirError, DecodeError> {
        let code = r.u8("dir err code")?;
        DirError::ALL
            .into_iter()
            .find(|e| *e as u8 == code)
            .ok_or(DecodeError::new("dir err code"))
    }
}

impl Wire for DirReply {
    fn put(&self, w: &mut WireWriter) {
        match self {
            DirReply::Cap(c) => {
                w.u8(RP_CAP);
                c.put(w);
            }
            DirReply::Ok => {
                w.u8(RP_OK);
            }
            DirReply::Listing { columns, rows } => {
                w.u8(RP_LISTING);
                COLUMNS.put(w, columns, String::put);
                ROWS.put(w, rows, Row::put);
            }
            DirReply::Caps(caps) => {
                w.u8(RP_CAPS);
                SET.put(w, caps, Option::put);
            }
            DirReply::Moved {
                object,
                to_port,
                to_object,
            } => {
                w.u8(RP_MOVED).u64(*object).u64(*to_port).u64(*to_object);
            }
            DirReply::Export {
                check,
                seqno,
                columns,
                rows,
            } => {
                w.u8(RP_EXPORT).u64(*check).u64(*seqno);
                COLUMNS.put(w, columns, String::put);
                ROWS.put(w, rows, Row::put);
            }
            DirReply::Snapshot {
                version,
                deadline_us,
                renewed,
                columns,
                rows,
            } => {
                put_snapshot_head(w, *version, *deadline_us, *renewed);
                COLUMNS.put(w, columns, String::put);
                ROWS.put(w, rows, Row::put);
            }
            DirReply::Unchanged {
                deadline_us,
                renewed,
            } => {
                w.u8(RP_UNCHANGED).u64(*deadline_us).boolean(*renewed);
            }
            DirReply::Err(e) => {
                w.u8(RP_ERR);
                e.put(w);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<DirReply, DecodeError> {
        Ok(match r.u8("dir rep tag")? {
            RP_CAP => DirReply::Cap(Capability::get(r)?),
            RP_OK => DirReply::Ok,
            RP_LISTING => DirReply::Listing {
                columns: COLUMNS.get(r, String::get)?,
                rows: ROWS.get(r, Row::get)?,
            },
            RP_CAPS => DirReply::Caps(SET.get(r, Option::get)?),
            RP_MOVED => DirReply::Moved {
                object: r.u64("moved object")?,
                to_port: r.u64("moved port")?,
                to_object: r.u64("moved to-object")?,
            },
            RP_EXPORT => DirReply::Export {
                check: r.u64("export check")?,
                seqno: r.u64("export seqno")?,
                columns: COLUMNS.get(r, String::get)?,
                rows: ROWS.get(r, Row::get)?,
            },
            RP_SNAPSHOT => {
                let (version, deadline_us, renewed) = get_snapshot_head(r)?;
                DirReply::Snapshot {
                    version,
                    deadline_us,
                    renewed,
                    columns: COLUMNS.get(r, String::get)?,
                    rows: ROWS.get(r, Row::get)?,
                }
            }
            RP_UNCHANGED => DirReply::Unchanged {
                deadline_us: r.u64("unchanged deadline")?,
                renewed: r.boolean("unchanged renewed")?,
            },
            RP_ERR => DirReply::Err(DirError::get(r)?),
            _ => return Err(DecodeError::new("dir rep tag")),
        })
    }
}

/// A snapshot reply up to what its lease covers: the tag, version,
/// deadline and renewed flag. [`DirReply::Snapshot`]'s `put` and a lease
/// grant's encoder both write it, then the columns and the rows, each
/// with [`put_row`](crate::directory::put_row).
pub(crate) fn put_snapshot_head(w: &mut WireWriter, version: u64, deadline_us: u64, renewed: bool) {
    w.u8(RP_SNAPSHOT)
        .u64(version)
        .u64(deadline_us)
        .boolean(renewed);
}

/// Reads what [`put_snapshot_head`] wrote after the tag.
fn get_snapshot_head(r: &mut WireReader<'_>) -> Result<(u64, u64, bool), DecodeError> {
    Ok((
        r.u64("snap version")?,
        r.u64("snap deadline")?,
        r.boolean("snap renewed")?,
    ))
}

/// A [`DirRequest::FetchDir`] answer as the client cache reads it: a
/// snapshot's rows go straight into the cache entry's [`NameIndex`],
/// with no [`Row`] built on the way.
#[derive(Debug)]
pub(crate) enum Fetched {
    /// A leased snapshot.
    Snapshot {
        version: u64,
        deadline_us: u64,
        renewed: bool,
        rows: NameIndex,
    },
    /// Any other reply, [`DirReply::Unchanged`] included.
    Reply(DirReply),
}

impl Fetched {
    /// Decodes a reply with [`DirReply`]'s readers and bounds.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] wherever [`DirReply::decode`] refuses the bytes,
    /// and for a snapshot that repeats a name.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Fetched, DecodeError> {
        let mut r = WireReader::new(bytes);
        if r.u8("dir rep tag")? != RP_SNAPSHOT {
            return DirReply::decode(bytes).map(Fetched::Reply);
        }
        let (version, deadline_us, renewed) = get_snapshot_head(&mut r)?;
        COLUMNS.get::<String, Vec<_>>(&mut r, String::get)?;
        let rows = ROWS.get(&mut r, Row::get_name_cap)?;
        r.expect_end("trailing bytes")?;
        Ok(Fetched::Snapshot {
            version,
            deadline_us,
            renewed,
            rows: NameIndex::new(rows).ok_or(DecodeError::new("snapshot names"))?,
        })
    }
}

const OP_CREATE: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_APPEND: u8 = 3;
const OP_CHMOD: u8 = 4;
const OP_DELROW: u8 = 5;
const OP_REPLACE_SET: u8 = 6;
const OP_CREATE_KEYED: u8 = 7;
const OP_APPEND_LINK: u8 = 8;
const OP_UNLINK: u8 = 9;
const OP_INSTALL_DIR: u8 = 10;
const OP_INSTALL_STUB: u8 = 11;
const OP_GRANT_READ: u8 = 12;

impl Wire for DirOp {
    fn put(&self, w: &mut WireWriter) {
        match self {
            DirOp::Create { columns, check } => {
                w.u8(OP_CREATE);
                COLUMNS.put(w, columns, String::put);
                w.u64(*check);
            }
            DirOp::Delete { object } => {
                w.u8(OP_DELETE).u64(*object);
            }
            DirOp::Append {
                object,
                name,
                cap,
                col_rights,
            } => {
                w.u8(OP_APPEND).u64(*object).string(name);
                cap.put(w);
                MASKS.put(w, col_rights, Rights::put);
            }
            DirOp::Chmod {
                object,
                name,
                col_rights,
            } => {
                w.u8(OP_CHMOD).u64(*object).string(name);
                MASKS.put(w, col_rights, Rights::put);
            }
            DirOp::DeleteRow { object, name } => {
                w.u8(OP_DELROW).u64(*object).string(name);
            }
            DirOp::ReplaceSet { items } => {
                w.u8(OP_REPLACE_SET);
                SET.put(w, items, <(u64, String, Capability)>::put);
            }
            DirOp::CreateKeyed {
                columns,
                check,
                key,
            } => {
                w.u8(OP_CREATE_KEYED);
                COLUMNS.put(w, columns, String::put);
                w.u64(*check).u64(*key);
            }
            DirOp::AppendLink {
                object,
                name,
                cap,
                col_rights,
            } => {
                w.u8(OP_APPEND_LINK).u64(*object).string(name);
                cap.put(w);
                MASKS.put(w, col_rights, Rights::put);
            }
            DirOp::Unlink { object, name } => {
                w.u8(OP_UNLINK).u64(*object).string(name);
            }
            DirOp::InstallDir {
                columns,
                rows,
                check,
                key,
            } => {
                w.u8(OP_INSTALL_DIR);
                COLUMNS.put(w, columns, String::put);
                ROWS.put(w, rows, Row::put);
                w.u64(*check).u64(*key);
            }
            DirOp::InstallStub {
                object,
                to_port,
                to_object,
                expected_seqno,
            } => {
                w.u8(OP_INSTALL_STUB)
                    .u64(*object)
                    .u64(*to_port)
                    .u64(*to_object)
                    .u64(*expected_seqno);
            }
            DirOp::GrantRead {
                cap,
                owner,
                cb_port,
                now_us,
                deadline_us,
            } => {
                w.u8(OP_GRANT_READ);
                cap.put(w);
                w.u64(*owner).u64(*cb_port).u64(*now_us).u64(*deadline_us);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<DirOp, DecodeError> {
        Ok(match r.u8("dir op tag")? {
            OP_CREATE => DirOp::Create {
                columns: COLUMNS.get(r, String::get)?,
                check: r.u64("op check")?,
            },
            OP_DELETE => DirOp::Delete {
                object: r.u64("op object")?,
            },
            OP_APPEND => DirOp::Append {
                object: r.u64("op object")?,
                name: r.string("op name")?,
                cap: Capability::get(r)?,
                col_rights: MASKS.get(r, Rights::get)?,
            },
            OP_CHMOD => DirOp::Chmod {
                object: r.u64("op object")?,
                name: r.string("op name")?,
                col_rights: MASKS.get(r, Rights::get)?,
            },
            OP_DELROW => DirOp::DeleteRow {
                object: r.u64("op object")?,
                name: r.string("op name")?,
            },
            OP_REPLACE_SET => DirOp::ReplaceSet {
                items: SET.get(r, <(u64, String, Capability)>::get)?,
            },
            OP_CREATE_KEYED => DirOp::CreateKeyed {
                columns: COLUMNS.get(r, String::get)?,
                check: r.u64("op check")?,
                key: r.u64("op key")?,
            },
            OP_APPEND_LINK => DirOp::AppendLink {
                object: r.u64("op object")?,
                name: r.string("op name")?,
                cap: Capability::get(r)?,
                col_rights: MASKS.get(r, Rights::get)?,
            },
            OP_UNLINK => DirOp::Unlink {
                object: r.u64("op object")?,
                name: r.string("op name")?,
            },
            OP_INSTALL_DIR => DirOp::InstallDir {
                columns: COLUMNS.get(r, String::get)?,
                rows: ROWS.get(r, Row::get)?,
                check: r.u64("op check")?,
                key: r.u64("op key")?,
            },
            OP_INSTALL_STUB => DirOp::InstallStub {
                object: r.u64("op object")?,
                to_port: r.u64("op stub port")?,
                to_object: r.u64("op stub object")?,
                expected_seqno: r.u64("op stub seqno")?,
            },
            OP_GRANT_READ => DirOp::GrantRead {
                cap: Capability::get(r)?,
                owner: r.u64("op grant owner")?,
                cb_port: r.u64("op grant cb port")?,
                now_us: r.u64("op grant now")?,
                deadline_us: r.u64("op grant deadline")?,
            },
            _ => return Err(DecodeError::new("dir op tag")),
        })
    }
}

impl DirOp {
    /// Encodes to the bytes carried by `SendToGroup`, in one exact-size
    /// allocation ([`Wire::encode`], callable without importing the
    /// trait).
    pub fn encode(&self) -> Payload {
        Wire::encode(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_flip::Port;
    use amoeba_testkit::{check, Gen};

    fn cap(o: u64) -> Capability {
        Capability::owner(Port::from_name("dir"), o, o * 3)
    }

    #[test]
    fn is_read_classification() {
        assert!(DirRequest::ListDir { cap: cap(1) }.is_read());
        assert!(DirRequest::LookupSet { items: vec![] }.is_read());
        assert!(DirRequest::ExportDir { cap: cap(1) }.is_read());
        assert!(!DirRequest::InstallStub {
            dir: cap(1),
            to_port: 0,
            to_object: 0,
            expected_seqno: 0
        }
        .is_read());
        assert!(!DirRequest::DeleteDir { cap: cap(1) }.is_read());
        assert!(!DirRequest::CreateDir {
            columns: vec!["o".into()]
        }
        .is_read());
        // FetchDir mutates the replicated lease table: it must be
        // ordered through the group, not served at one replica.
        assert!(!DirRequest::FetchDir {
            cap: cap(1),
            owner: 1,
            cb_port: 2,
            ttl_us: 3,
            have: 4
        }
        .is_read());
    }

    #[test]
    fn prop_decoders_never_panic() {
        check("dir decoders never panic", 256, |g: &mut Gen| {
            let data = g.bytes(128);
            let _ = DirRequest::decode(&data);
            let _ = DirReply::decode(&data);
            let _ = DirOp::decode(&data);
            let _ = Fetched::decode(&data);
        });
    }

    /// A hand-built snapshot reply granting the owner column of each name.
    fn snapshot(names: &[&str]) -> Payload {
        let row = |name: &&str| Row {
            name: name.to_string(),
            cap: cap(1),
            col_rights: vec![Rights::ALL],
        };
        let reply = DirReply::Snapshot {
            version: 3,
            deadline_us: 9,
            renewed: true,
            columns: vec!["owner".into()],
            rows: names.iter().map(row).collect(),
        };
        reply.encode()
    }

    /// The client cache reads a snapshot straight into its name index,
    /// and refuses one that repeats a name (which the client reports as
    /// [`crate::DirClientError::Protocol`]): the index could answer
    /// either row.
    #[test]
    fn a_fetched_snapshot_is_a_name_index_and_a_repeated_name_is_refused() {
        match Fetched::decode(&snapshot(&["b", "a", "c"])) {
            Ok(Fetched::Snapshot {
                version: 3,
                deadline_us: 9,
                renewed: true,
                rows,
            }) => {
                for name in ["a", "b", "c"] {
                    assert_eq!(rows.get(name), Some(cap(1)), "{name}");
                }
                assert_eq!(rows.get("d"), None);
            }
            other => panic!("{other:?}"),
        }
        assert!(Fetched::decode(&snapshot(&["b", "a", "b"])).is_err());
        assert!(matches!(
            Fetched::decode(&DirReply::Ok.encode()),
            Ok(Fetched::Reply(DirReply::Ok))
        ));
    }

    /// A revalidation is the renewed lease alone: the cache keeps its
    /// rows, so a byte after it is refused like after any other reply.
    #[test]
    fn a_fetched_unchanged_is_its_lease_alone() {
        let unchanged = DirReply::Unchanged {
            deadline_us: 9,
            renewed: false,
        }
        .encode();
        assert!(matches!(
            Fetched::decode(&unchanged),
            Ok(Fetched::Reply(DirReply::Unchanged {
                deadline_us: 9,
                renewed: false
            }))
        ));
        let trailing = [&unchanged[..], &[0]].concat();
        assert!(Fetched::decode(&trailing).is_err());
    }
}
