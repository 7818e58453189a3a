//! Amoeba capabilities: 128-bit unforgeable object references.
//!
//! A capability has four parts (paper §2): the *port* of the service, the
//! *object* number at that service, a *rights* field, and a *check* field
//! that makes capabilities unforgeable. Rights restriction uses Amoeba's
//! one-way-function scheme: the owner capability carries the raw random
//! check `C`; a capability restricted to rights `R` carries `F(C xor R)`.
//! Only the server (which knows `C`) can verify or further restrict.

use std::fmt;

use amoeba_flip::{wire_struct, Port};

use crate::rights::Rights;

wire_struct! {
    /// A 128-bit Amoeba capability: (port, object, rights, check), in
    /// that order on the wire too.
    #[derive(Copy, Clone, PartialEq, Eq, Hash)]
    pub struct Capability {
        /// Identifies the service.
        pub port: Port,
        /// Identifies the object at the service.
        pub object: u64,
        /// What the holder may do.
        pub rights: Rights,
        /// Proof of authority.
        pub check: u64,
    }
}

/// The one-way function protecting check fields (a 64-bit finalizer; not
/// cryptographic, but unguessable enough for a simulation — Amoeba used a
/// similarly lightweight F).
pub fn one_way(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Capability {
    /// A capability no service ever issues.
    pub const NULL: Capability = Capability {
        port: Port::NULL,
        object: 0,
        rights: Rights::NONE,
        check: 0,
    };

    /// Whether this is the null capability.
    pub fn is_null(&self) -> bool {
        *self == Capability::NULL
    }

    /// Builds the owner (all-rights) capability given the raw check `c`.
    pub fn owner(port: Port, object: u64, c: u64) -> Capability {
        Capability {
            port,
            object,
            rights: Rights::ALL,
            check: c,
        }
    }

    /// The check field a capability with `rights` must carry, given the
    /// raw check `c` (server side).
    pub fn check_for(c: u64, rights: Rights) -> u64 {
        if rights == Rights::ALL {
            c
        } else {
            one_way(c ^ u64::from(rights.0))
        }
    }

    /// Server-side validation against the stored raw check `c`.
    pub fn validate(&self, c: u64) -> bool {
        self.check == Self::check_for(c, self.rights)
    }

    /// Restricts an **owner** capability to `new_rights` without server
    /// help. Returns `None` if `self` is not an owner capability (only the
    /// server can restrict an already-restricted capability).
    pub fn restrict(&self, new_rights: Rights) -> Option<Capability> {
        if self.rights != Rights::ALL {
            return None;
        }
        Some(Capability {
            port: self.port,
            object: self.object,
            rights: new_rights,
            check: Self::check_for(self.check, new_rights),
        })
    }

    /// Server-side restriction: produce the capability for `new_rights`
    /// from the raw check.
    pub fn issue(port: Port, object: u64, c: u64, rights: Rights) -> Capability {
        Capability {
            port,
            object,
            rights,
            check: Self::check_for(c, rights),
        }
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cap<{}:{} r={} chk={:08x}>",
            self.port, self.object, self.rights, self.check as u32
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_flip::wire::Wire;
    use amoeba_testkit::{check, Gen};

    fn port() -> Port {
        Port::from_name("dir")
    }

    #[test]
    fn owner_validates() {
        let c = 0xDEAD_BEEF_u64;
        let cap = Capability::owner(port(), 5, c);
        assert!(cap.validate(c));
        assert!(!cap.validate(c + 1));
    }

    #[test]
    fn restricted_cap_validates_and_cannot_escalate() {
        let c = 12345;
        let owner = Capability::owner(port(), 5, c);
        let ro = owner.restrict(Rights::column(2)).unwrap();
        assert!(ro.validate(c));
        // Forging more rights with the restricted check fails validation.
        let forged = Capability {
            rights: Rights::ALL,
            ..ro
        };
        assert!(!forged.validate(c));
        let forged2 = Capability {
            rights: Rights::column(2) | Rights::MODIFY,
            ..ro
        };
        assert!(!forged2.validate(c));
    }

    #[test]
    fn restricting_a_restricted_cap_fails_client_side() {
        let owner = Capability::owner(port(), 1, 7);
        let ro = owner.restrict(Rights::column(0)).unwrap();
        assert!(ro.restrict(Rights::NONE).is_none());
    }

    #[test]
    fn issue_matches_restrict() {
        let c = 999;
        let owner = Capability::owner(port(), 2, c);
        let a = owner.restrict(Rights::MODIFY).unwrap();
        let b = Capability::issue(port(), 2, c, Rights::MODIFY);
        assert_eq!(a, b);
    }

    #[test]
    fn wire_round_trip() {
        let cap = Capability::issue(port(), 42, 7, Rights::column(1));
        assert_eq!(Capability::decode(&cap.encode()).unwrap(), cap);
    }

    #[test]
    fn prop_no_rights_escalation() {
        check("no rights escalation", 512, |g: &mut Gen| {
            // Someone holding a capability with rights `have` cannot build
            // a valid capability with rights `want` ⊋ `have` by reusing
            // the check field they possess.
            let c = g.u64();
            let have = Rights(g.u8());
            let want = Rights(g.u8());
            if have.covers(want) || have == Rights::ALL {
                return; // vacuous case
            }
            let held = Capability::issue(port(), 1, c, have);
            let forged = Capability {
                rights: want,
                ..held
            };
            // The forged capability validates only with negligible
            // probability (hash collision); assert it does not validate.
            assert!(!forged.validate(c));
        });
    }

    #[test]
    fn prop_issued_caps_validate() {
        check("issued caps validate", 256, |g: &mut Gen| {
            let c = g.u64();
            let cap = Capability::issue(port(), 3, c, Rights(g.u8()));
            assert!(cap.validate(c));
        });
    }
}
