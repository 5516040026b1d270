//! Hash-once tables for the kernel cache and the memos.
//!
//! A lookup in a std `HashMap` needs an owned key or a type the key
//! borrows as, and a sharded map hashes once to pick the shard and again
//! in the shard. The caches here are keyed on whole programs, so building
//! the key deep-clones the program, and every extra hash walks it again.
//! A [`HashedTable`] stores its entries under a 64-bit hash that the
//! owner computes once per lookup, from borrowed key parts (a [`Lookup`]),
//! with its own keyed `RandomState`: `lgend` takes its keys from
//! clients, so the hash must not be predictable. Entries that share a hash
//! sit side by side in one bucket and are told apart by [`Lookup::is`],
//! so a collision costs a comparison, never a wrong hit. The owned key is
//! built only when an entry is inserted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A key as a lookup sees it: the parts of a stored key `K`, possibly
/// borrowed. Its [`Hash`] is the table's hash, so every lookup of one
/// key type must go through one `Lookup` type.
pub(crate) trait Lookup<K>: Hash {
    /// Whether `stored` is this key.
    fn is(&self, stored: &K) -> bool;

    /// The owned key, built when the lookup inserts.
    fn into_key(self) -> K;
}

/// An owned key is its own lookup.
impl<K: Hash + Eq> Lookup<K> for K {
    fn is(&self, stored: &K) -> bool {
        self == stored
    }

    fn into_key(self) -> K {
        self
    }
}

/// Hashes the `u64` a [`HashedTable`] is keyed on to itself: it is
/// already a keyed hash.
#[derive(Default)]
struct Identity(u64);

impl Hasher for Identity {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a hashed table is keyed on u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Entries bucketed by a precomputed hash of their key (see the module
/// docs).
pub(crate) struct HashedTable<K, V> {
    buckets: HashMap<u64, Vec<(K, V)>, BuildHasherDefault<Identity>>,
    len: usize,
}

impl<K, V> Default for HashedTable<K, V> {
    fn default() -> Self {
        HashedTable {
            buckets: HashMap::default(),
            len: 0,
        }
    }
}

impl<K, V> HashedTable<K, V> {
    /// The value stored for `key`, whose hash is `hash`.
    pub(crate) fn get(&self, hash: u64, key: &impl Lookup<K>) -> Option<&V> {
        let bucket = self.buckets.get(&hash)?;
        bucket.iter().find(|(k, _)| key.is(k)).map(|(_, v)| v)
    }

    /// The value stored for `key` (hash `hash`), inserting `value()`
    /// under the owned key if there is none, and whether this call
    /// inserted it.
    pub(crate) fn get_or_insert(
        &mut self,
        hash: u64,
        key: impl Lookup<K>,
        value: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        let bucket = self.buckets.entry(hash).or_default();
        if let Some(i) = bucket.iter().position(|(k, _)| key.is(k)) {
            return (&mut bucket[i].1, false);
        }
        bucket.push((key.into_key(), value()));
        self.len += 1;
        let (_, v) = bucket.last_mut().expect("just pushed");
        (v, true)
    }

    /// Stores `value` for `key` (hash `hash`), replacing any value stored
    /// for it.
    pub(crate) fn insert(&mut self, hash: u64, key: impl Lookup<K>, value: V) {
        let bucket = self.buckets.entry(hash).or_default();
        match bucket.iter_mut().find(|(k, _)| key.is(k)) {
            Some((_, v)) => *v = value,
            None => {
                bucket.push((key.into_key(), value));
                self.len += 1;
            }
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
        self.len = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    /// A key whose hash is the same for every value: every lookup lands
    /// in one bucket.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct Colliding(pub(crate) u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u32(7);
        }
    }

    #[test]
    fn colliding_keys_keep_distinct_entries() {
        let state = RandomState::new();
        let (a, b) = (Colliding(1), Colliding(2));
        let hash = state.hash_one(a);
        assert_eq!(hash, state.hash_one(b));
        let mut table = HashedTable::default();
        assert_eq!(table.get_or_insert(hash, a, || "a"), (&mut "a", true));
        assert_eq!(table.get_or_insert(hash, b, || "b"), (&mut "b", true));
        assert_eq!(table.get_or_insert(hash, a, || "x"), (&mut "a", false));
        assert_eq!(table.get(hash, &b), Some(&"b"));
        assert_eq!(table.get(hash, &Colliding(3)), None);
        table.insert(hash, b, "b2");
        assert_eq!(
            (table.get(hash, &a), table.get(hash, &b)),
            (Some(&"a"), Some(&"b2"))
        );
        assert_eq!(table.len(), 2);
        table.clear();
        assert_eq!((table.len(), table.get(hash, &a)), (0, None));
    }
}
