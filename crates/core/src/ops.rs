//! The directory-service wire protocol: the Fig. 2 operations, their
//! replies, and the internal replicated-op representation.
//!
//! The declaration is the layout. Each enum here is declared once,
//! inside [`wire_enum!`](amoeba_flip::wire_enum), which derives its
//! codec from the declaration: a message is its variant's tag, then the
//! variant's fields in the order declared, each in its own [`Wire`]
//! form. A counted field names its bounds after `as`: 1–4 column names,
//! at most 4 rights masks, at most 1,000,000 rows, at most 10,000 set
//! items. A new field goes in the declaration and nowhere else.

use amoeba_flip::wire::{Counted, DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::{wire_enum, Payload, Port};

use crate::cache::NameIndex;
use crate::capability::Capability;
use crate::directory::{DirStructureError, Row, COLUMNS, MASKS, ROWS};
use crate::rights::Rights;

/// The items of a set request, reply or op: a `u32` count of at most
/// 10,000.
const SET: Counted = Counted::u32(10_000, "set items");

wire_enum! {
    /// A client request: exactly the operations of the paper's Fig. 2.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DirRequest {
        /// Create a new directory with the given protection columns.
        1 => CreateDir {
            /// Column (protection-domain) names, 1–4.
            columns: Vec<String> as COLUMNS,
        },
        /// Delete a directory.
        2 => DeleteDir {
            /// The directory (needs [`Rights::ADMIN`]).
            cap: Capability,
        },
        /// List a directory's rows (restricted to the visible columns).
        3 => ListDir {
            /// The directory (needs at least one column right).
            cap: Capability,
        },
        /// Add a row.
        4 => AppendRow {
            /// The directory (needs [`Rights::MODIFY`]).
            dir: Capability,
            /// New row name.
            name: String,
            /// Capability to store.
            cap: Capability,
            /// Per-column rights masks.
            col_rights: Vec<Rights> as MASKS,
        },
        /// Change a row's per-column rights masks.
        5 => ChmodRow {
            /// The directory (needs [`Rights::MODIFY`]).
            dir: Capability,
            /// Row name.
            name: String,
            /// New masks.
            col_rights: Vec<Rights> as MASKS,
        },
        /// Delete a row.
        6 => DeleteRow {
            /// The directory (needs [`Rights::MODIFY`]).
            dir: Capability,
            /// Row name.
            name: String,
        },
        /// Look up capabilities for a set of (directory, name) pairs in one
        /// request.
        7 => LookupSet {
            /// The pairs to resolve.
            items: Vec<(Capability, String)> as SET,
        },
        /// Replace the capabilities in a set of rows, indivisibly.
        8 => ReplaceSet {
            /// (directory, name, new capability) triples.
            items: Vec<(Capability, String, Capability)> as SET,
        },
        /// Fetch a directory's visible rows **plus a read lease** over them
        /// (the client-cache miss path, see [`crate::cache`]). Although it
        /// mutates no rows, it is deliberately *not* classified as a read:
        /// the grant must be ordered through the group so that every
        /// replica knows about the lease and any later write — initiated at
        /// any replica — revokes it before being acknowledged.
        15 => FetchDir {
            /// The directory (needs at least one column right).
            cap: Capability,
            /// The requesting client's unique cache identity.
            owner: u64,
            /// Port the client's invalidation listener answers on.
            cb_port: Port,
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
}

impl DirRequest {
    /// Whether this operation only reads (paper: 98% of traffic).
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            DirRequest::ListDir { .. } | DirRequest::LookupSet { .. }
        )
    }
}

wire_enum! {
    /// A reply from the directory service.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DirReply {
        /// New directory's owner capability.
        1 => Cap(cap: Capability),
        /// Mutation done.
        2 => Ok,
        /// Directory listing.
        3 => Listing {
            /// Column names.
            columns: Vec<String> as COLUMNS,
            /// Rows with the capability restricted to the holder's effective
            /// rights and only the visible columns' masks.
            rows: Vec<Row> as ROWS,
        },
        /// LookupSet results, in request order.
        4 => Caps(caps: Vec<Option<Capability>> as SET),
        /// The operation failed.
        5 => Err(error: DirError),
        /// A leased directory snapshot ([`DirRequest::FetchDir`]): the rows
        /// visible to the holder, good for local serving until
        /// `deadline_us` or an invalidation callback, whichever is first.
        8 => Snapshot {
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
            columns: Vec<String> as COLUMNS,
            /// Rows restricted as `ListDir` restricts them: the capability
            /// to the holder's effective rights, the masks to the visible
            /// columns.
            rows: Vec<Row> as ROWS,
        },
        /// A renewed lease over the snapshot the holder already keeps: the
        /// [`DirRequest::FetchDir`] named the version of exactly the contents
        /// it would be sent now, so they are not sent again (Gray &
        /// Cheriton's revalidation).
        9 => Unchanged {
            /// The renewed lease's absolute deadline, as in
            /// [`Snapshot`](Self::Snapshot).
            deadline_us: u64,
            /// Served under a piggybacked renewal, as in
            /// [`Snapshot`](Self::Snapshot).
            renewed: bool,
        },
    }
}

wire_enum! {
    /// Failures the service reports to clients, each on the wire as its
    /// one-byte code.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DirError {
        /// Fewer than a majority of servers are up (paper §3.1: even reads
        /// are refused).
        1 => NoMajority,
        /// Unknown object or forged check field.
        2 => BadCapability,
        /// The capability lacks the needed right.
        3 => NoPermission,
        /// AppendRow of an existing name.
        4 => DuplicateName,
        /// No row with that name.
        5 => NoSuchName,
        /// Rights-mask count does not match the column count.
        6 => ColumnMismatch,
        /// Malformed request.
        7 => Malformed,
        /// Internal failure (storage layer).
        8 => Internal,
    }
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
        };
        f.write_str(s)
    }
}

impl std::error::Error for DirError {}

/// A refused row edit answers with the error of the same name.
impl From<DirStructureError> for DirError {
    fn from(e: DirStructureError) -> DirError {
        match e {
            DirStructureError::DuplicateName => DirError::DuplicateName,
            DirStructureError::NoSuchName => DirError::NoSuchName,
            DirStructureError::ColumnMismatch => DirError::ColumnMismatch,
        }
    }
}

/// [`DirReply::Snapshot`]'s tag, for the two readers and writers of a
/// snapshot that do not build a [`DirReply`].
const SNAPSHOT: u8 = 8;

/// A snapshot reply up to what its lease covers: the tag, version,
/// deadline and renewed flag. A lease grant's encoder writes it, then
/// the columns and the rows, each with
/// [`put_row`](crate::directory::put_row): the bytes
/// [`DirReply::Snapshot`] is declared to have.
pub(crate) fn put_snapshot_head(w: &mut WireWriter, version: u64, deadline_us: u64, renewed: bool) {
    w.u8(SNAPSHOT)
        .u64(version)
        .u64(deadline_us)
        .boolean(renewed);
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
        if r.u8("DirReply tag")? != SNAPSHOT {
            return DirReply::decode(bytes).map(Fetched::Reply);
        }
        let (version, deadline_us, renewed) = <(u64, u64, bool)>::get(&mut r)?;
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

wire_enum! {
    /// The replicated operation: what actually travels through
    /// `SendToGroup`. Unlike [`DirRequest`], a create carries the check field
    /// generated by the initiator (paper §3.1: "all the servers must use the
    /// same check field"), and directories are named by object number.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DirOp {
        /// Create a directory; every replica assigns the same object number
        /// deterministically at apply time.
        1 => Create {
            /// Column names.
            columns: Vec<String> as COLUMNS,
            /// The raw check field chosen by the initiator.
            check: u64,
        },
        /// Delete a directory.
        2 => Delete {
            /// Object number.
            object: u64,
        },
        /// Append a row.
        3 => Append {
            /// Directory object number.
            object: u64,
            /// Row name.
            name: String,
            /// Stored capability.
            cap: Capability,
            /// Per-column masks.
            col_rights: Vec<Rights> as MASKS,
        },
        /// Change masks.
        4 => Chmod {
            /// Directory object number.
            object: u64,
            /// Row name.
            name: String,
            /// New masks.
            col_rights: Vec<Rights> as MASKS,
        },
        /// Delete a row.
        5 => DeleteRow {
            /// Directory object number.
            object: u64,
            /// Row name.
            name: String,
        },
        /// Replace capabilities in a set of rows, indivisibly.
        6 => ReplaceSet {
            /// (object, name, new capability) triples.
            items: Vec<(u64, String, Capability)> as SET,
        },
        /// Grant a read lease over a directory and answer with a snapshot
        /// of its visible rows. Ordered like a write so the replicated
        /// lease table stays identical on every replica; the timestamps are
        /// chosen by the initiator (simulated time is global) so apply
        /// stays deterministic. Mutates no rows and produces no disk
        /// effects.
        12 => GrantRead {
            /// The holder's capability (rights drive the row restriction;
            /// the check is re-validated at apply time).
            cap: Capability,
            /// The requesting client's unique cache identity.
            owner: u64,
            /// Port of the client's invalidation listener.
            cb_port: Port,
            /// Simulated time (µs) at the initiator, used to prune expired
            /// leases deterministically.
            now_us: u64,
            /// Absolute lease deadline (µs), already clamped to the
            /// service's maximum TTL.
            deadline_us: u64,
        },
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
    use amoeba_testkit::{check, Gen};

    fn cap(o: u64) -> Capability {
        Capability::owner(Port::from_name("dir"), o, o * 3)
    }

    #[test]
    fn is_read_classification() {
        assert!(DirRequest::ListDir { cap: cap(1) }.is_read());
        assert!(DirRequest::LookupSet { items: vec![] }.is_read());
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
            cb_port: Port::from_raw(2),
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
            name: (*name).into(),
            cap: cap(1),
            col_rights: [Rights::ALL][..].into(),
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
