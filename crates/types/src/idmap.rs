//! Hash tables keyed by the id newtypes.
//!
//! [`TermId`](crate::TermId) and [`PageId`](crate::PageId) are small
//! integers the program assigns itself, so the tables the buffer pool
//! keeps over them need neither SipHash's flooding resistance nor its
//! cost (it was most of a buffer hit). [`IdMap`] / [`IdSet`] are the
//! std collections over [`IdHasher`]: pack the id's `u32`s, finish with
//! the [`splitmix64`] mix. The hash is fixed, but nothing may depend
//! on iteration order all the same — sort before comparing or
//! reporting, as with any `HashMap`. Keys that arrive from outside the
//! program keep the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by an id newtype, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of id newtypes, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The `splitmix64` step: a fixed, platform-independent bijection on
/// `u64` whose every output bit depends on every input bit.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hasher for the id newtypes: a `TermId` is its `u32`, a `PageId` is
/// `term << 32 | page` (both injective), mixed once in `finish` —
/// hashbrown indexes buckets by a hash's low bits and tags them by its
/// top seven, so both ends must spread.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The ids hash as `u32`s and never get here; any other key is
        // still hashed correctly, a byte at a time.
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageId, TermId};
    use std::hash::BuildHasher;

    fn hash_of(key: impl std::hash::Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The fullest of `2^bits` buckets, relative to a uniform spread,
    /// when `hashes` are bucketed by `pick` (which must return fewer
    /// than `2^bits`).
    fn worst_load(hashes: &[u64], bits: u32, pick: impl Fn(u64) -> u64) -> f64 {
        let mut buckets = vec![0u32; 1 << bits];
        for &h in hashes {
            buckets[pick(h) as usize] += 1;
        }
        let uniform = hashes.len() as f64 / buckets.len() as f64;
        f64::from(*buckets.iter().max().unwrap()) / uniform
    }

    /// hashbrown takes a bucket index from the low bits of the hash
    /// and a 7-bit tag from the top: neither may cluster on the key
    /// shapes the pool's tables actually hold. Twice uniform is what a
    /// random function's fullest of 4096 buckets reaches at 16 keys a
    /// bucket (the first shape: 32), so the bound has no slack for a
    /// hash that clusters at all.
    #[test]
    fn id_hashes_spread_at_both_ends() {
        let terms = |n: u32| (0..n).map(TermId);
        let pages = |terms: u32, pages: u32| {
            (0..terms).flat_map(move |t| (0..pages).map(move |p| PageId::new(TermId(t), p)))
        };
        let shapes: [(&str, Vec<u64>); 3] = [
            (
                "2^16 sequential terms",
                terms(1 << 16).map(hash_of).collect(),
            ),
            (
                "many terms x few pages",
                pages(1 << 15, 3).map(hash_of).collect(),
            ),
            (
                "few terms x thousands of pages",
                pages(24, 4096).map(hash_of).collect(),
            ),
        ];
        for (shape, hashes) in &shapes {
            let top7 = worst_load(hashes, 7, |h| h >> 57);
            let low12 = worst_load(hashes, 12, |h| h & 0xfff);
            assert!(top7 <= 2.0, "{shape}: top-7-bit load {top7:.2}x uniform");
            assert!(low12 <= 2.0, "{shape}: low-12-bit load {low12:.2}x uniform");
        }
    }

    #[test]
    fn page_ids_pack_injectively() {
        let mut seen = IdSet::default();
        for t in 0..100u32 {
            for p in 0..10u32 {
                assert!(seen.insert(PageId::new(TermId(t), p)));
            }
        }
        // (term, page) and (page, term) are different keys.
        assert_ne!(
            hash_of(PageId::new(TermId(1), 2)),
            hash_of(PageId::new(TermId(2), 1))
        );
        assert_eq!(hash_of(TermId(7)), splitmix64(7));
    }

    #[test]
    fn other_keys_still_hash() {
        let mut m: IdMap<&str, u32> = IdMap::default();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!((m["a"], m["b"]), (1, 2));
    }
}
