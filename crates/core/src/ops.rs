//! The directory-service wire protocol: the Fig. 2 operations, their
//! replies, and the internal replicated-op representation.

use amoeba_flip::wire::{DecodeError, WireReader, WireWriter};
use amoeba_flip::Payload;

use crate::capability::Capability;
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
        /// Full rows (name, capability, per-column masks).
        rows: Vec<(String, Capability, Vec<Rights>)>,
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
        /// (name, capability restricted to the holder's effective rights,
        /// masks of the visible columns).
        rows: Vec<(String, Capability, Vec<Rights>)>,
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
        /// Sequence number of the directory's last change.
        seqno: u64,
        /// Absolute simulated-time deadline (µs since simulation
        /// start) after which the lease — and the snapshot — is dead.
        deadline_us: u64,
        /// `true` when this snapshot was served off the read path under
        /// a piggybacked lease renewal (the revoking write reinstated
        /// the holder's lease, so no group round ran for this fetch).
        renewed: bool,
        /// Column names.
        columns: Vec<String>,
        /// Rows (name, capability restricted to the holder's effective
        /// rights, masks of the visible columns) — the same restriction
        /// `ListDir` applies.
        rows: Vec<(String, Capability, Vec<Rights>)>,
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
        /// Full rows (name, stored capability, per-column masks).
        rows: Vec<(String, Capability, Vec<Rights>)>,
    },
    /// The operation failed.
    Err(DirError),
}

/// Failures the service reports to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirError {
    /// Fewer than a majority of servers are up (paper §3.1: even reads
    /// are refused).
    NoMajority,
    /// Unknown object or forged check field.
    BadCapability,
    /// The capability lacks the needed right.
    NoPermission,
    /// AppendRow of an existing name.
    DuplicateName,
    /// No row with that name.
    NoSuchName,
    /// Rights-mask count does not match the column count.
    ColumnMismatch,
    /// Malformed request.
    Malformed,
    /// Internal failure (storage layer).
    Internal,
    /// A conditional operation's expected sequence number no longer
    /// matches (a concurrent update won the race): re-read and retry.
    Stale,
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
        /// Full rows (name, stored capability, per-column masks).
        rows: Vec<(String, Capability, Vec<Rights>)>,
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

// ---------------------------------------------------------------------
// Codec helpers.
// ---------------------------------------------------------------------

fn write_rights_vec(w: &mut WireWriter, v: &[Rights]) {
    w.u8(v.len() as u8);
    for r in v {
        w.u8(r.0);
    }
}

fn read_rights_vec(r: &mut WireReader<'_>) -> Result<Vec<Rights>, DecodeError> {
    let n = r.u8("rights len")? as usize;
    if n > 4 {
        return Err(DecodeError::new("rights len"));
    }
    (0..n).map(|_| Ok(Rights(r.u8("rights")?))).collect()
}

fn write_columns(w: &mut WireWriter, v: &[String]) {
    w.u8(v.len() as u8);
    for c in v {
        w.string(c);
    }
}

fn read_columns(r: &mut WireReader<'_>) -> Result<Vec<String>, DecodeError> {
    let n = r.u8("columns len")? as usize;
    if !(1..=4).contains(&n) {
        return Err(DecodeError::new("columns len"));
    }
    (0..n).map(|_| r.string("column")).collect()
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

fn write_full_rows(w: &mut WireWriter, rows: &[(String, Capability, Vec<Rights>)]) {
    w.u32(rows.len() as u32);
    for (name, cap, masks) in rows {
        w.string(name);
        cap.write(w);
        write_rights_vec(w, masks);
    }
}

fn read_full_rows(
    r: &mut WireReader<'_>,
) -> Result<Vec<(String, Capability, Vec<Rights>)>, DecodeError> {
    let n = r.u32("rows len")? as usize;
    if n > 1_000_000 {
        return Err(DecodeError::new("rows len"));
    }
    let mut rows = Vec::new();
    for _ in 0..n {
        let name = r.string("row name")?;
        let cap = Capability::read(r)?;
        let masks = read_rights_vec(r)?;
        rows.push((name, cap, masks));
    }
    Ok(rows)
}

impl DirRequest {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            DirRequest::CreateDir { columns } => {
                w.u8(RQ_CREATE);
                write_columns(&mut w, columns);
            }
            DirRequest::DeleteDir { cap } => {
                w.u8(RQ_DELETE);
                cap.write(&mut w);
            }
            DirRequest::ListDir { cap } => {
                w.u8(RQ_LIST);
                cap.write(&mut w);
            }
            DirRequest::AppendRow {
                dir,
                name,
                cap,
                col_rights,
            } => {
                w.u8(RQ_APPEND);
                dir.write(&mut w);
                w.string(name);
                cap.write(&mut w);
                write_rights_vec(&mut w, col_rights);
            }
            DirRequest::ChmodRow {
                dir,
                name,
                col_rights,
            } => {
                w.u8(RQ_CHMOD);
                dir.write(&mut w);
                w.string(name);
                write_rights_vec(&mut w, col_rights);
            }
            DirRequest::DeleteRow { dir, name } => {
                w.u8(RQ_DELROW);
                dir.write(&mut w);
                w.string(name);
            }
            DirRequest::LookupSet { items } => {
                w.u8(RQ_LOOKUP_SET).u32(items.len() as u32);
                for (cap, name) in items {
                    cap.write(&mut w);
                    w.string(name);
                }
            }
            DirRequest::ReplaceSet { items } => {
                w.u8(RQ_REPLACE_SET).u32(items.len() as u32);
                for (dir, name, cap) in items {
                    dir.write(&mut w);
                    w.string(name);
                    cap.write(&mut w);
                }
            }
            DirRequest::CreateKeyed { columns, key } => {
                w.u8(RQ_CREATE_KEYED);
                write_columns(&mut w, columns);
                w.u64(*key);
            }
            DirRequest::AppendLink {
                dir,
                name,
                cap,
                col_rights,
            } => {
                w.u8(RQ_APPEND_LINK);
                dir.write(&mut w);
                w.string(name);
                cap.write(&mut w);
                write_rights_vec(&mut w, col_rights);
            }
            DirRequest::Unlink { dir, name } => {
                w.u8(RQ_UNLINK);
                dir.write(&mut w);
                w.string(name);
            }
            DirRequest::ExportDir { cap } => {
                w.u8(RQ_EXPORT);
                cap.write(&mut w);
            }
            DirRequest::InstallDir {
                columns,
                rows,
                check,
                key,
            } => {
                w.u8(RQ_INSTALL_DIR);
                write_columns(&mut w, columns);
                write_full_rows(&mut w, rows);
                w.u64(*check).u64(*key);
            }
            DirRequest::InstallStub {
                dir,
                to_port,
                to_object,
                expected_seqno,
            } => {
                w.u8(RQ_INSTALL_STUB);
                dir.write(&mut w);
                w.u64(*to_port).u64(*to_object).u64(*expected_seqno);
            }
            DirRequest::FetchDir {
                cap,
                owner,
                cb_port,
                ttl_us,
            } => {
                w.u8(RQ_FETCH_DIR);
                cap.write(&mut w);
                w.u64(*owner).u64(*cb_port).u64(*ttl_us);
            }
        }
        w.finish()
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(buf);
        let req = match r.u8("dir req tag")? {
            RQ_CREATE => DirRequest::CreateDir {
                columns: read_columns(&mut r)?,
            },
            RQ_DELETE => DirRequest::DeleteDir {
                cap: Capability::read(&mut r)?,
            },
            RQ_LIST => DirRequest::ListDir {
                cap: Capability::read(&mut r)?,
            },
            RQ_APPEND => DirRequest::AppendRow {
                dir: Capability::read(&mut r)?,
                name: r.string("name")?,
                cap: Capability::read(&mut r)?,
                col_rights: read_rights_vec(&mut r)?,
            },
            RQ_CHMOD => DirRequest::ChmodRow {
                dir: Capability::read(&mut r)?,
                name: r.string("name")?,
                col_rights: read_rights_vec(&mut r)?,
            },
            RQ_DELROW => DirRequest::DeleteRow {
                dir: Capability::read(&mut r)?,
                name: r.string("name")?,
            },
            RQ_LOOKUP_SET => {
                let n = r.u32("lookup len")? as usize;
                if n > 10_000 {
                    return Err(DecodeError::new("lookup len"));
                }
                let mut items = Vec::new();
                for _ in 0..n {
                    let cap = Capability::read(&mut r)?;
                    let name = r.string("lookup name")?;
                    items.push((cap, name));
                }
                DirRequest::LookupSet { items }
            }
            RQ_REPLACE_SET => {
                let n = r.u32("replace len")? as usize;
                if n > 10_000 {
                    return Err(DecodeError::new("replace len"));
                }
                let mut items = Vec::new();
                for _ in 0..n {
                    let dir = Capability::read(&mut r)?;
                    let name = r.string("replace name")?;
                    let cap = Capability::read(&mut r)?;
                    items.push((dir, name, cap));
                }
                DirRequest::ReplaceSet { items }
            }
            RQ_CREATE_KEYED => DirRequest::CreateKeyed {
                columns: read_columns(&mut r)?,
                key: r.u64("create key")?,
            },
            RQ_APPEND_LINK => DirRequest::AppendLink {
                dir: Capability::read(&mut r)?,
                name: r.string("name")?,
                cap: Capability::read(&mut r)?,
                col_rights: read_rights_vec(&mut r)?,
            },
            RQ_UNLINK => DirRequest::Unlink {
                dir: Capability::read(&mut r)?,
                name: r.string("name")?,
            },
            RQ_EXPORT => DirRequest::ExportDir {
                cap: Capability::read(&mut r)?,
            },
            RQ_INSTALL_DIR => DirRequest::InstallDir {
                columns: read_columns(&mut r)?,
                rows: read_full_rows(&mut r)?,
                check: r.u64("install check")?,
                key: r.u64("install key")?,
            },
            RQ_INSTALL_STUB => DirRequest::InstallStub {
                dir: Capability::read(&mut r)?,
                to_port: r.u64("stub port")?,
                to_object: r.u64("stub object")?,
                expected_seqno: r.u64("stub seqno")?,
            },
            RQ_FETCH_DIR => DirRequest::FetchDir {
                cap: Capability::read(&mut r)?,
                owner: r.u64("fetch owner")?,
                cb_port: r.u64("fetch cb port")?,
                ttl_us: r.u64("fetch ttl")?,
            },
            _ => return Err(DecodeError::new("dir req tag")),
        };
        r.expect_end("dir req trailing")?;
        Ok(req)
    }

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

fn err_code(e: DirError) -> u8 {
    match e {
        DirError::NoMajority => 1,
        DirError::BadCapability => 2,
        DirError::NoPermission => 3,
        DirError::DuplicateName => 4,
        DirError::NoSuchName => 5,
        DirError::ColumnMismatch => 6,
        DirError::Malformed => 7,
        DirError::Internal => 8,
        DirError::Stale => 9,
    }
}

fn err_from(code: u8) -> Result<DirError, DecodeError> {
    Ok(match code {
        1 => DirError::NoMajority,
        2 => DirError::BadCapability,
        3 => DirError::NoPermission,
        4 => DirError::DuplicateName,
        5 => DirError::NoSuchName,
        6 => DirError::ColumnMismatch,
        7 => DirError::Malformed,
        8 => DirError::Internal,
        9 => DirError::Stale,
        _ => return Err(DecodeError::new("dir err code")),
    })
}

impl DirReply {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            DirReply::Cap(c) => {
                w.u8(RP_CAP);
                c.write(&mut w);
            }
            DirReply::Ok => {
                w.u8(RP_OK);
            }
            DirReply::Listing { columns, rows } => {
                w.u8(RP_LISTING);
                write_columns(&mut w, columns);
                write_full_rows(&mut w, rows);
            }
            DirReply::Caps(v) => {
                w.u8(RP_CAPS).u32(v.len() as u32);
                for c in v {
                    match c {
                        Some(c) => {
                            w.u8(1);
                            c.write(&mut w);
                        }
                        None => {
                            w.u8(0);
                        }
                    }
                }
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
                write_columns(&mut w, columns);
                write_full_rows(&mut w, rows);
            }
            DirReply::Snapshot {
                seqno,
                deadline_us,
                renewed,
                columns,
                rows,
            } => {
                w.u8(RP_SNAPSHOT)
                    .u64(*seqno)
                    .u64(*deadline_us)
                    .u8(u8::from(*renewed));
                write_columns(&mut w, columns);
                write_full_rows(&mut w, rows);
            }
            DirReply::Err(e) => {
                w.u8(RP_ERR).u8(err_code(*e));
            }
        }
        w.finish()
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(buf);
        let rep = match r.u8("dir rep tag")? {
            RP_CAP => DirReply::Cap(Capability::read(&mut r)?),
            RP_OK => DirReply::Ok,
            RP_LISTING => DirReply::Listing {
                columns: read_columns(&mut r)?,
                rows: read_full_rows(&mut r)?,
            },
            RP_CAPS => {
                let n = r.u32("caps len")? as usize;
                if n > 10_000 {
                    return Err(DecodeError::new("caps len"));
                }
                let mut v = Vec::new();
                for _ in 0..n {
                    v.push(match r.u8("caps some")? {
                        1 => Some(Capability::read(&mut r)?),
                        0 => None,
                        _ => return Err(DecodeError::new("caps some")),
                    });
                }
                DirReply::Caps(v)
            }
            RP_MOVED => DirReply::Moved {
                object: r.u64("moved object")?,
                to_port: r.u64("moved port")?,
                to_object: r.u64("moved to-object")?,
            },
            RP_EXPORT => DirReply::Export {
                check: r.u64("export check")?,
                seqno: r.u64("export seqno")?,
                columns: read_columns(&mut r)?,
                rows: read_full_rows(&mut r)?,
            },
            RP_SNAPSHOT => DirReply::Snapshot {
                seqno: r.u64("snap seqno")?,
                deadline_us: r.u64("snap deadline")?,
                renewed: match r.u8("snap renewed")? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError::new("snap renewed")),
                },
                columns: read_columns(&mut r)?,
                rows: read_full_rows(&mut r)?,
            },
            RP_ERR => DirReply::Err(err_from(r.u8("dir err code")?)?),
            _ => return Err(DecodeError::new("dir rep tag")),
        };
        r.expect_end("dir rep trailing")?;
        Ok(rep)
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

/// Wire size of a [`Capability`] (port + object + rights + check).
const WIRE_CAP_LEN: usize = 8 + 8 + 1 + 8;

fn wire_string_len(s: &str) -> usize {
    4 + s.len()
}

impl DirOp {
    /// Exact encoded size, used as the writer's single-allocation hint:
    /// a directory update is marshalled once, into one buffer, and never
    /// copied again on its way through the group pipeline.
    fn encoded_len(&self) -> usize {
        1 + match self {
            DirOp::Create { columns, check: _ } => {
                1 + columns.iter().map(|c| wire_string_len(c)).sum::<usize>() + 8
            }
            DirOp::Delete { .. } => 8,
            DirOp::Append {
                name, col_rights, ..
            } => 8 + wire_string_len(name) + WIRE_CAP_LEN + 1 + col_rights.len(),
            DirOp::Chmod {
                name, col_rights, ..
            } => 8 + wire_string_len(name) + 1 + col_rights.len(),
            DirOp::DeleteRow { name, .. } => 8 + wire_string_len(name),
            DirOp::ReplaceSet { items } => {
                4 + items
                    .iter()
                    .map(|(_, name, _)| 8 + wire_string_len(name) + WIRE_CAP_LEN)
                    .sum::<usize>()
            }
            DirOp::CreateKeyed { columns, .. } => {
                1 + columns.iter().map(|c| wire_string_len(c)).sum::<usize>() + 8 + 8
            }
            DirOp::AppendLink {
                name, col_rights, ..
            } => 8 + wire_string_len(name) + WIRE_CAP_LEN + 1 + col_rights.len(),
            DirOp::Unlink { name, .. } => 8 + wire_string_len(name),
            DirOp::InstallDir { columns, rows, .. } => {
                1 + columns.iter().map(|c| wire_string_len(c)).sum::<usize>()
                    + 4
                    + rows
                        .iter()
                        .map(|(name, _, masks)| {
                            wire_string_len(name) + WIRE_CAP_LEN + 1 + masks.len()
                        })
                        .sum::<usize>()
                    + 8
                    + 8
            }
            DirOp::InstallStub { .. } => 8 + 8 + 8 + 8,
            DirOp::GrantRead { .. } => WIRE_CAP_LEN + 8 + 8 + 8 + 8,
        }
    }

    /// Encodes to the bytes carried by `SendToGroup`, in a single
    /// allocation.
    pub fn encode(&self) -> Payload {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        match self {
            DirOp::Create { columns, check } => {
                w.u8(OP_CREATE);
                write_columns(&mut w, columns);
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
                cap.write(&mut w);
                write_rights_vec(&mut w, col_rights);
            }
            DirOp::Chmod {
                object,
                name,
                col_rights,
            } => {
                w.u8(OP_CHMOD).u64(*object).string(name);
                write_rights_vec(&mut w, col_rights);
            }
            DirOp::DeleteRow { object, name } => {
                w.u8(OP_DELROW).u64(*object).string(name);
            }
            DirOp::ReplaceSet { items } => {
                w.u8(OP_REPLACE_SET).u32(items.len() as u32);
                for (object, name, cap) in items {
                    w.u64(*object).string(name);
                    cap.write(&mut w);
                }
            }
            DirOp::CreateKeyed {
                columns,
                check,
                key,
            } => {
                w.u8(OP_CREATE_KEYED);
                write_columns(&mut w, columns);
                w.u64(*check).u64(*key);
            }
            DirOp::AppendLink {
                object,
                name,
                cap,
                col_rights,
            } => {
                w.u8(OP_APPEND_LINK).u64(*object).string(name);
                cap.write(&mut w);
                write_rights_vec(&mut w, col_rights);
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
                write_columns(&mut w, columns);
                write_full_rows(&mut w, rows);
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
                cap.write(&mut w);
                w.u64(*owner).u64(*cb_port).u64(*now_us).u64(*deadline_us);
            }
        }
        debug_assert_eq!(w.len(), self.encoded_len());
        w.finish_payload()
    }

    /// Decodes a replicated op.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(buf);
        let op = match r.u8("dir op tag")? {
            OP_CREATE => DirOp::Create {
                columns: read_columns(&mut r)?,
                check: r.u64("op check")?,
            },
            OP_DELETE => DirOp::Delete {
                object: r.u64("op object")?,
            },
            OP_APPEND => DirOp::Append {
                object: r.u64("op object")?,
                name: r.string("op name")?,
                cap: Capability::read(&mut r)?,
                col_rights: read_rights_vec(&mut r)?,
            },
            OP_CHMOD => DirOp::Chmod {
                object: r.u64("op object")?,
                name: r.string("op name")?,
                col_rights: read_rights_vec(&mut r)?,
            },
            OP_DELROW => DirOp::DeleteRow {
                object: r.u64("op object")?,
                name: r.string("op name")?,
            },
            OP_REPLACE_SET => {
                let n = r.u32("op replace len")? as usize;
                if n > 10_000 {
                    return Err(DecodeError::new("op replace len"));
                }
                let mut items = Vec::new();
                for _ in 0..n {
                    let object = r.u64("op object")?;
                    let name = r.string("op name")?;
                    let cap = Capability::read(&mut r)?;
                    items.push((object, name, cap));
                }
                DirOp::ReplaceSet { items }
            }
            OP_CREATE_KEYED => DirOp::CreateKeyed {
                columns: read_columns(&mut r)?,
                check: r.u64("op check")?,
                key: r.u64("op key")?,
            },
            OP_APPEND_LINK => DirOp::AppendLink {
                object: r.u64("op object")?,
                name: r.string("op name")?,
                cap: Capability::read(&mut r)?,
                col_rights: read_rights_vec(&mut r)?,
            },
            OP_UNLINK => DirOp::Unlink {
                object: r.u64("op object")?,
                name: r.string("op name")?,
            },
            OP_INSTALL_DIR => DirOp::InstallDir {
                columns: read_columns(&mut r)?,
                rows: read_full_rows(&mut r)?,
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
                cap: Capability::read(&mut r)?,
                owner: r.u64("op grant owner")?,
                cb_port: r.u64("op grant cb port")?,
                now_us: r.u64("op grant now")?,
                deadline_us: r.u64("op grant deadline")?,
            },
            _ => return Err(DecodeError::new("dir op tag")),
        };
        r.expect_end("dir op trailing")?;
        Ok(op)
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
    fn requests_round_trip() {
        let reqs = vec![
            DirRequest::CreateDir {
                columns: vec!["owner".into(), "other".into()],
            },
            DirRequest::DeleteDir { cap: cap(1) },
            DirRequest::ListDir { cap: cap(1) },
            DirRequest::AppendRow {
                dir: cap(1),
                name: "x".into(),
                cap: cap(2),
                col_rights: vec![Rights::ALL, Rights::NONE],
            },
            DirRequest::ChmodRow {
                dir: cap(1),
                name: "x".into(),
                col_rights: vec![Rights::MODIFY, Rights::NONE],
            },
            DirRequest::DeleteRow {
                dir: cap(1),
                name: "x".into(),
            },
            DirRequest::LookupSet {
                items: vec![(cap(1), "a".into()), (cap(1), "b".into())],
            },
            DirRequest::ReplaceSet {
                items: vec![(cap(1), "a".into(), cap(9))],
            },
            DirRequest::CreateKeyed {
                columns: vec!["owner".into()],
                key: 0xFEED,
            },
            DirRequest::AppendLink {
                dir: cap(1),
                name: "x".into(),
                cap: cap(2),
                col_rights: vec![Rights::ALL],
            },
            DirRequest::Unlink {
                dir: cap(1),
                name: "x".into(),
            },
            DirRequest::ExportDir { cap: cap(1) },
            DirRequest::InstallDir {
                columns: vec!["owner".into()],
                rows: vec![("r".into(), cap(3), vec![Rights::ALL])],
                check: 0xC4EC,
                key: 0x4E1,
            },
            DirRequest::InstallStub {
                dir: cap(1),
                to_port: 77,
                to_object: 9,
                expected_seqno: 12,
            },
            DirRequest::FetchDir {
                cap: cap(1),
                owner: 0xC11E,
                cb_port: 0xCB,
                ttl_us: 250_000,
            },
        ];
        for req in reqs {
            assert_eq!(DirRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        let reps = vec![
            DirReply::Cap(cap(5)),
            DirReply::Ok,
            DirReply::Listing {
                columns: vec!["owner".into()],
                rows: vec![("a".into(), cap(1), vec![Rights::ALL])],
            },
            DirReply::Caps(vec![Some(cap(1)), None]),
            DirReply::Moved {
                object: 4,
                to_port: 99,
                to_object: 7,
            },
            DirReply::Export {
                check: 31,
                seqno: 8,
                columns: vec!["owner".into()],
                rows: vec![("r".into(), cap(3), vec![Rights::ALL])],
            },
            DirReply::Snapshot {
                seqno: 8,
                deadline_us: 1_250_000,
                renewed: true,
                columns: vec!["owner".into()],
                rows: vec![("r".into(), cap(3), vec![Rights::ALL])],
            },
            DirReply::Err(DirError::NoMajority),
            DirReply::Err(DirError::BadCapability),
            DirReply::Err(DirError::Stale),
        ];
        for rep in reps {
            assert_eq!(DirReply::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn ops_round_trip() {
        let ops = vec![
            DirOp::Create {
                columns: vec!["o".into()],
                check: 77,
            },
            DirOp::Delete { object: 4 },
            DirOp::Append {
                object: 4,
                name: "x".into(),
                cap: cap(2),
                col_rights: vec![Rights::ALL],
            },
            DirOp::Chmod {
                object: 4,
                name: "x".into(),
                col_rights: vec![Rights::NONE],
            },
            DirOp::DeleteRow {
                object: 4,
                name: "x".into(),
            },
            DirOp::ReplaceSet {
                items: vec![(4, "x".into(), cap(3))],
            },
            DirOp::CreateKeyed {
                columns: vec!["o".into()],
                check: 31,
                key: 0xFEED,
            },
            DirOp::AppendLink {
                object: 4,
                name: "x".into(),
                cap: cap(2),
                col_rights: vec![Rights::ALL],
            },
            DirOp::Unlink {
                object: 4,
                name: "x".into(),
            },
            DirOp::InstallDir {
                columns: vec!["owner".into(), "other".into()],
                rows: vec![
                    ("a".into(), cap(2), vec![Rights::ALL, Rights::NONE]),
                    ("b".into(), cap(3), vec![Rights::MODIFY, Rights::NONE]),
                ],
                check: 0xC4EC,
                key: 0x4E1,
            },
            DirOp::InstallStub {
                object: 4,
                to_port: 77,
                to_object: 9,
                expected_seqno: 12,
            },
            DirOp::GrantRead {
                cap: cap(1),
                owner: 0xC11E,
                cb_port: 0xCB,
                now_us: 1_000_000,
                deadline_us: 1_250_000,
            },
        ];
        for op in ops {
            assert_eq!(DirOp::decode(&op.encode()).unwrap(), op);
        }
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
            ttl_us: 3
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
        });
    }
}
