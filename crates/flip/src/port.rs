//! Amoeba service ports.
//!
//! In Amoeba a *port* is a 48-bit value naming a service, not a machine;
//! clients locate servers listening on a port by broadcasting. We keep the
//! 48-bit width for fidelity and provide deterministic derivation of ports
//! from names for tests and examples.

use std::fmt;

/// A 48-bit Amoeba service port.
///
/// # Examples
///
/// ```
/// use amoeba_flip::Port;
///
/// let p = Port::from_name("directory");
/// assert_eq!(p, Port::from_name("directory"));
/// assert_ne!(p, Port::from_name("bullet"));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(u64);

impl Port {
    /// The all-zero null port, never used by a real service.
    pub const NULL: Port = Port(0);

    /// Creates a port from a raw value (masked to 48 bits).
    pub const fn from_raw(raw: u64) -> Port {
        Port(raw & 0xFFFF_FFFF_FFFF)
    }

    /// The raw 48-bit value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Deterministically derives a port from a service name (FNV-1a,
    /// folded to 48 bits).
    pub fn from_name(name: &str) -> Port {
        let h = amoeba_sim::fnv1a(name.as_bytes());
        // Fold the high bits in so the 48-bit truncation keeps entropy,
        // and avoid colliding with NULL.
        let folded = (h ^ (h >> 48)) & 0xFFFF_FFFF_FFFF;
        Port(if folded == 0 { 1 } else { folded })
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port:{:012x}", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port:{:012x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_masks_to_48_bits() {
        let p = Port::from_raw(u64::MAX);
        assert_eq!(p.as_raw(), 0xFFFF_FFFF_FFFF);
    }

    #[test]
    fn from_name_is_deterministic_and_collision_resistant() {
        let names = ["dir", "bullet", "disk1", "disk2", "a", "b", ""];
        let ports: Vec<Port> = names.iter().map(|n| Port::from_name(n)).collect();
        for (i, a) in ports.iter().enumerate() {
            for (j, b) in ports.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "collision between {:?} and {:?}", names[i], names[j]);
                }
            }
        }
    }

    /// Ports name services across machines and runs: the derivation may
    /// never change.
    #[test]
    fn from_name_keeps_its_values() {
        assert_eq!(Port::from_name("dir").as_raw(), 0x3e18_f46e_95fc);
        assert_eq!(Port::from_name("bullet").as_raw(), 0x1726_7008_27c4);
        assert_eq!(Port::from_name("").as_raw(), 0x9ce4_8422_e8d7);
    }

    #[test]
    fn never_null() {
        assert_ne!(Port::from_name(""), Port::NULL);
    }

    #[test]
    fn display_is_hex() {
        let p = Port::from_raw(0xabc);
        assert_eq!(p.to_string(), "port:000000000abc");
    }
}
