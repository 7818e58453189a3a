//! Deterministic randomized-testing helpers.
//!
//! The build environment is offline, so `proptest` is unavailable; this
//! crate provides the small slice of it the workspace needs: a seeded
//! generator plus a [`check`] driver that runs a property over many
//! generated cases and reports the failing case's seed so it can be
//! replayed exactly.
//!
//! ```
//! use amoeba_testkit::{check, Gen};
//!
//! check("addition commutes", 256, |g: &mut Gen| {
//!     let (a, b) = (g.u32(), g.u32());
//!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//! });
//! ```

#![warn(missing_docs)]

/// A deterministic generator of arbitrary test values (splitmix64 core).
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An arbitrary `u32`.
    pub fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    /// An arbitrary `u16`.
    pub fn u16(&mut self) -> u16 {
        self.u64() as u16
    }

    /// An arbitrary `u8`.
    pub fn u8(&mut self) -> u8 {
        self.u64() as u8
    }

    /// An arbitrary `bool`.
    pub fn boolean(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A value in `[0, bound)` (bound must be non-zero).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.u64() % bound as u64) as usize
    }

    /// A byte vector with length in `[0, max_len]`.
    pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.u8()).collect()
    }

    /// An ASCII alphanumeric string with length in `[0, max_len]`.
    pub fn string(&mut self, max_len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
        let len = self.below(max_len + 1);
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
            .collect()
    }

    /// An arbitrary UTF-8 string (not just ASCII) with char count in
    /// `[0, max_chars]`.
    pub fn utf8(&mut self, max_chars: usize) -> String {
        let len = self.below(max_chars + 1);
        (0..len)
            .map(|_| {
                // Bias towards ASCII but exercise multi-byte code points.
                match self.below(4) {
                    0..=2 => (0x20 + self.below(0x5F) as u32) as u8 as char,
                    _ => char::from_u32(0x00A0 + self.below(0x1000) as u32).unwrap_or('\u{00A0}'),
                }
            })
            .collect()
    }
}

/// Runs `property` over `cases` generated inputs; panics with the failing
/// case's seed on the first failure.
///
/// # Panics
///
/// Re-raises the property's panic, prefixed with the case seed so
/// `Gen::new(seed)` replays the exact failing input.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let seed = 0xA0E_BA00 + case;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut Gen::new(seed))
        }));
        if let Err(payload) = result {
            eprintln!("property '{name}' failed at case {case} (Gen seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Lower-case hex of `bytes`, the form wire goldens are written in.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes of a golden written by [`hex`].
///
/// # Panics
///
/// Panics on a character that is not a hex digit.
pub fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// The mutation fuzz of a decoder, seeded by one valid encoding: every
/// truncation of `golden`, every single-byte substitution in it and
/// `golden` with a byte appended must either be refused or decode to a
/// value that encodes back to exactly that input. `reencode` decodes its
/// input and returns the value's encoding, `None` when it refuses.
///
/// # Panics
///
/// On the first input that decodes to a value with other bytes.
pub fn mutants_refused_or_exact(golden: &[u8], reencode: impl Fn(&[u8]) -> Option<Vec<u8>>) {
    let check = |input: &[u8]| {
        if let Some(out) = reencode(input) {
            assert!(out == input, "{} decodes to {}", hex(input), hex(&out));
        }
    };
    for cut in 0..golden.len() {
        check(&golden[..cut]);
    }
    let mut mutant = golden.to_vec();
    for i in 0..golden.len() {
        for b in (0..=u8::MAX).filter(|b| *b != golden[i]) {
            mutant[i] = b;
            check(&mutant);
        }
        mutant[i] = golden[i];
    }
    check(&[golden, &[0xA5]].concat());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Gen::new(7), |g, _| Some(g.u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Gen::new(7), |g, _| Some(g.u64()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn bytes_respects_max_len() {
        let mut g = Gen::new(3);
        for _ in 0..100 {
            assert!(g.bytes(17).len() <= 17);
        }
    }

    #[test]
    #[should_panic]
    fn check_propagates_failure() {
        check("always fails", 1, |_| panic!("boom"));
    }
}
