//! Capabilities for Bullet files.

use std::fmt;

use amoeba_flip::wire_struct;

wire_struct! {
    /// A capability naming one immutable Bullet file: on the wire, the
    /// object number, then the check field.
    ///
    /// Possession of a valid capability (object number plus unguessable check
    /// field) is the only way to read or delete the file.
    #[derive(Copy, Clone, PartialEq, Eq, Hash)]
    pub struct FileCap {
        /// Object number at the issuing server.
        pub object: u64,
        /// Unguessable check field proving authority.
        pub check: u64,
    }
}

impl FileCap {
    /// A sentinel capability that no server ever issues.
    pub const NULL: FileCap = FileCap {
        object: 0,
        check: 0,
    };

    /// Whether this is the null capability.
    pub fn is_null(&self) -> bool {
        *self == FileCap::NULL
    }
}

impl fmt::Debug for FileCap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file<{}:{:08x}>", self.object, self.check as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_flip::wire::Wire;

    #[test]
    fn null_is_null() {
        assert!(FileCap::NULL.is_null());
        assert!(!FileCap {
            object: 1,
            check: 2
        }
        .is_null());
    }

    #[test]
    fn wire_round_trip() {
        let c = FileCap {
            object: 42,
            check: 0xDEAD_BEEF,
        };
        assert_eq!(FileCap::decode(&c.encode()), Ok(c));
    }
}
