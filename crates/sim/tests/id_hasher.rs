//! The id hasher spreads dense ids over both halves of the hash that a
//! hash table reads: the low bits pick the bucket, the top 7 the tag
//! that filters a probe. An identity hash, whose top bits are all zero
//! for small ids, fails this.
//!
//! The umbrella crate's `tests/sim_kernel.rs` compiles this file too.

use std::collections::BTreeSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

use amoeba_sim::IdHasher;

fn hash<T: Hash>(id: T) -> u64 {
    BuildHasherDefault::<IdHasher>::default().hash_one(id)
}

/// Distinct values of the top 7 and of the low 12 bits over `hashes`.
fn spread(hashes: &[u64]) -> (usize, usize) {
    let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
    let buckets: BTreeSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
    (tags.len(), buckets.len())
}

#[test]
fn sequential_ids_hash_apart_in_the_tag_and_the_bucket_bits() {
    let mut runs: Vec<(String, Vec<u64>)> = Vec::new();
    for start in [0u64, 1 << 32] {
        runs.push((
            format!("u64 from {start}"),
            (start..start + 4096).map(hash).collect(),
        ));
    }
    for start in [0u32, u32::MAX - 4095] {
        runs.push((
            format!("u32 from {start}"),
            (start..=start + 4095).map(hash).collect(),
        ));
    }
    for (what, hashes) in runs {
        let (tags, buckets) = spread(&hashes);
        assert!(tags >= 100, "{what}: {tags} distinct top-7-bit tags");
        assert!(
            buckets >= 1_500,
            "{what}: {buckets} distinct low-12-bit buckets"
        );
    }
}

#[test]
fn equal_ids_hash_equal() {
    for id in [0u64, 1, 7, 1 << 32, u64::MAX] {
        assert_eq!(hash(id), hash(id));
        assert_eq!(hash((id, 3u32)), hash((id, 3u32)));
    }
    assert_ne!(hash(1u64), hash(2u64));
}
