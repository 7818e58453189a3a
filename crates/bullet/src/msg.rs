//! Wire messages of the Bullet protocol, each enum declared once in
//! [`wire_enum!`], which derives its codec. Decoded with
//! [`Wire::decode_shared`](amoeba_flip::wire::Wire::decode_shared), file
//! contents are zero-copy slices of the packet.

use amoeba_flip::{wire_enum, Payload};

use crate::cap::FileCap;

wire_enum! {
    /// A request to a Bullet server.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BulletRequest {
        /// Create an immutable file holding `data`; returns its capability.
        1 => Create {
            /// File contents (shared, zero-copy).
            data: Payload,
        },
        /// Read the whole file.
        2 => Read {
            /// Which file.
            cap: FileCap,
        },
        /// Size of the file in bytes.
        3 => Size {
            /// Which file.
            cap: FileCap,
        },
        /// Delete the file.
        4 => Delete {
            /// Which file.
            cap: FileCap,
        },
    }
}

wire_enum! {
    /// A Bullet server's reply.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BulletReply {
        /// File created.
        1 => Created {
            /// Capability of the new file.
            cap: FileCap,
        },
        /// File contents.
        2 => Data {
            /// The bytes (shared with the wire buffer they arrived in).
            data: Payload,
        },
        /// File size.
        3 => Size {
            /// Bytes.
            len: u64,
        },
        /// Operation done (delete).
        4 => Done,
        /// Bad capability or out of space.
        5 => Error {
            /// What went wrong.
            kind: BulletErrorKind,
        },
    }
}

wire_enum! {
    /// Failure classes a Bullet server reports.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BulletErrorKind {
        /// Unknown object or wrong check field.
        1 => BadCapability,
        /// No room for the file.
        2 => NoSpace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_flip::wire::Wire;
    use amoeba_testkit::{check, Gen};

    // Golden bytes of every variant live in the root suite's
    // `tests/wire_formats.rs`.

    #[test]
    fn file_contents_decode_without_a_copy() {
        let wire = BulletRequest::Create {
            data: vec![5; 64].into(),
        }
        .encode();
        let Ok(BulletRequest::Create { data }) = BulletRequest::decode_shared(&wire) else {
            panic!("a create");
        };
        // The tag and the length prefix come first.
        assert_eq!(data.as_ptr(), wire[1 + 4..].as_ptr());
    }

    #[test]
    fn prop_decode_never_panics() {
        check("bullet decode never panics", 256, |g: &mut Gen| {
            let data: Payload = g.bytes(64).into();
            let _ = BulletRequest::decode_shared(&data);
            let _ = BulletReply::decode_shared(&data);
        });
    }
}
