//! 64-bit FNV-1a: the one byte hash of the workspace. Process names and
//! host lists in a kernel trace, FLIP ports derived from service names,
//! journal checksums and the digest of a wire form are all this hash,
//! so each is stable across runs, hosts and builds.

/// A streaming 64-bit FNV-1a hash: equal byte streams hash equal,
/// however they were split across [`write`](Fnv1a::write) calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The hash of no bytes.
    pub const fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// The hash of every byte written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// The 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_split_stream_hashes_like_the_whole() {
        assert_eq!(
            Fnv1a::new().write(b"foo").write(b"bar").finish(),
            fnv1a(b"foobar")
        );
    }
}
