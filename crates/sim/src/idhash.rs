//! The hasher for maps keyed by ids the program allocates itself.
//!
//! Process, mailbox and node ids, host addresses, transaction and locate
//! ids, sequence numbers, member ids, object, block and file numbers, and
//! registered ports are all handed out by this program — counters, or
//! hashes of the program's own service names — never chosen by a
//! request. Nobody can pick such keys to collide, so the DoS-resistant
//! SipHash of std's `RandomState` buys nothing for them and costs a
//! keyed hash per lookup. [`IdHasher`] is a multiply-rotate hash in the
//! style of FxHash instead: one rotate, xor and multiply per word.
//!
//! A map keyed by data a request supplies — a row name — keeps
//! `RandomState`.
//!
//! The hash is fixed, so an [`IdMap`]'s iteration order repeats from run
//! to run. No code may rely on that: where emission order matters, the
//! code sorts, exactly as it must over a `RandomState` map.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a program-allocated id (see the module docs).
#[allow(clippy::disallowed_types)] // the one place std's map is named
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-allocated ids (see the module docs).
#[allow(clippy::disallowed_types)] // the one place std's set is named
pub type IdSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

/// FxHash's multiplier: odd, so a word's low bits map one-to-one onto
/// the hash's low bits (the bucket index), and the product carries them
/// into the top bits (the 7-bit tag the table filters probes with).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The multiply-rotate hasher behind [`IdMap`] and [`IdSet`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
