//! The one hash-consing table of the crate, and the hasher behind every
//! hash map of the crate.
//!
//! Every interning table (the [`crate::TermStore`] nodes, constants and
//! names, the [`crate::CoreArena`] types and grades, and the rewrite
//! fragment's [`crate::rewrite::ExprArena`]) keeps its keys in one
//! id-ordered `Vec`. An [`IdTable`] beside it maps a key to its id
//! without storing the key again: open addressing over `(hash tag, id)`
//! slots, where a tag match is confirmed by comparing with the owner's
//! `Vec` at that id. So each key is stored once, a lookup by a borrowed
//! key (`&str` against `Arc<str>`) builds an owned key only on a miss,
//! and growing the table moves slots by their stored tags without
//! hashing any key again.
//!
//! [`Seeded`] hashes with a folded multiply (the 64×64→128-bit product
//! of two words, its halves xored together) under a seed drawn once per
//! process from std's `RandomState`. The seed is never fixed, because
//! `numfuzz serve` interns the programs of untrusted requests. Hashes
//! are therefore not stable across processes; ids, which follow
//! insertion order alone, are.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// A `HashMap` under the per-process [`Seeded`] hasher.
pub(crate) type SeededMap<K, V> = std::collections::HashMap<K, V, Seeded>;

/// A `HashSet` under the per-process [`Seeded`] hasher.
pub(crate) type SeededSet<K> = std::collections::HashSet<K, Seeded>;

/// Multiplier of the per-word fold (an odd 64-bit constant).
const FOLD: u64 = 0x5851_f42d_4c95_7f2d;

/// The 128-bit product of `x` and `y`, its two halves xored.
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds [`SeededHasher`]s from the process seed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Seeded {
    start: u64,
    finish: u64,
}

impl Default for Seeded {
    fn default() -> Self {
        static SEED: OnceLock<Seeded> = OnceLock::new();
        *SEED.get_or_init(|| {
            let keys = RandomState::new();
            // The final multiplier must be odd to keep every bit.
            Seeded { start: keys.hash_one(0u8), finish: keys.hash_one(1u8) | 1 }
        })
    }
}

impl BuildHasher for Seeded {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher { acc: self.start, finish: self.finish }
    }
}

/// Folds each written word into its accumulator with one multiply.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeededHasher {
    acc: u64,
    finish: u64,
}

impl Hasher for SeededHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        // The length tells "ab" from "ab\0".
        self.write_u64(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 61));
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.acc = folded_multiply(self.acc ^ i, FOLD);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        folded_multiply(self.acc, self.finish)
    }
}

/// Marks a vacant slot (no key gets this id: see [`IdTable::insert`]).
const VACANT: u32 = u32::MAX;

/// One slot: the high 32 bits of its key's hash, and the key's id.
#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u32,
    id: u32,
}

const EMPTY: Slot = Slot { tag: 0, id: VACANT };

/// Where [`IdTable::find`] stopped on a miss: the key's tag and the
/// first vacant slot of its probe run, for [`IdTable::insert`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Vacancy {
    tag: u32,
    slot: usize,
}

/// Maps each key of an owner's id-ordered `Vec` to its index (its id),
/// storing only a hash tag and the id per key (see the module docs).
///
/// Ids are dense and handed out in insertion order, so the owner pushes
/// the key onto its `Vec` exactly when [`IdTable::insert`] returns its id.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdTable {
    /// Linear-probing slots; the length is zero or a power of two.
    slots: Vec<Slot>,
    /// Occupied slots (the next id).
    len: usize,
    hasher: Seeded,
}

impl IdTable {
    /// The id of `key` in `keys` (the owner's `Vec`, indexed by id), or
    /// where to insert it.
    pub(crate) fn find<T, Q>(&self, keys: &[T], key: &Q) -> Result<u32, Vacancy>
    where
        T: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let tag = (self.hasher.hash_one(key) >> 32) as u32;
        self.find_tagged(tag, |id| keys[id as usize].borrow() == key)
    }

    fn find_tagged(&self, tag: u32, mut same: impl FnMut(u32) -> bool) -> Result<u32, Vacancy> {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Err(Vacancy { tag, slot: 0 });
        };
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == VACANT {
                return Err(Vacancy { tag, slot: i });
            }
            if slot.tag == tag && same(slot.id) {
                return Ok(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records the key [`IdTable::find`] missed under the next id, which
    /// it returns; the owner pushes that key onto its `Vec` at this id.
    pub(crate) fn insert(&mut self, at: Vacancy) -> u32 {
        let id = u32::try_from(self.len)
            .ok()
            .filter(|&id| id != VACANT)
            .expect("an id table holds fewer than 2^32 - 1 keys");
        self.len += 1;
        // Keep the load at most 3/4 (the probe runs stay short).
        if self.len * 4 > self.slots.len() * 3 {
            self.grow();
            self.place(Slot { tag: at.tag, id });
        } else {
            self.slots[at.slot] = Slot { tag: at.tag, id };
        }
        id
    }

    /// Doubles the slots, moving each by its tag: no key is hashed or
    /// compared again.
    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; capacity]);
        for slot in old.into_iter().filter(|s| s.id != VACANT) {
            self.place(slot);
        }
    }

    /// Puts a slot at the first vacant position of its probe run.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = slot.tag as usize & mask;
        while self.slots[i].id != VACANT {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// The most slots one lookup of a stored key inspects.
    #[cfg(test)]
    pub(crate) fn longest_probe(&self) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        let mut longest = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.id != VACANT {
                longest = longest.max((i.wrapping_sub(slot.tag as usize) & mask) + 1);
            }
        }
        longest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Interns `key` into `keys` through `table`, as the owners do.
    fn intern(table: &mut IdTable, keys: &mut Vec<u64>, key: u64) -> u32 {
        match table.find(keys, &key) {
            Ok(id) => id,
            Err(at) => {
                keys.push(key);
                table.insert(at)
            }
        }
    }

    #[test]
    fn equal_keys_share_an_id_and_new_keys_get_the_next_one() {
        let (mut table, mut keys) = (IdTable::default(), Vec::new());
        // 200,000 keys take the table from 8 slots to 2^19.
        for k in 0..200_000u64 {
            assert_eq!(intern(&mut table, &mut keys, k * 7919), k as u32);
        }
        for k in (0..200_000u64).rev() {
            assert_eq!(intern(&mut table, &mut keys, k * 7919), k as u32);
        }
        assert_eq!(keys.len(), 200_000);
        assert_eq!(table.len, 200_000);
        assert!(table.slots.len() >= 200_000 * 4 / 3);
    }

    #[test]
    fn a_borrowed_key_finds_its_owned_copy() {
        let (mut table, mut names) = (IdTable::default(), Vec::<Arc<str>>::new());
        for name in ["x", "y", "hypot"] {
            let at = table.find(&names, name).expect_err("new name");
            names.push(name.into());
            table.insert(at);
        }
        let owned = String::from("hypot");
        assert_eq!(table.find(&names, owned.as_str()).ok(), Some(2));
        assert!(table.find(&names, "z").is_err());
    }

    #[test]
    fn the_probe_guard_catches_a_hash_whose_high_bits_do_not_mix() {
        // Small integers as their own hashes leave the tag bits zero, so
        // every key starts its probe at slot 0: the guard the stores'
        // clustering test applies (at most 64) fails at once.
        let mut table = IdTable::default();
        for k in 0..1_000u64 {
            let at = table.find_tagged((k >> 32) as u32, |_| false).expect_err("distinct");
            table.insert(at);
        }
        assert!(table.longest_probe() > 64, "{}", table.longest_probe());
    }

    #[test]
    fn hashes_depend_on_every_written_word_and_on_length() {
        let s = Seeded::default();
        assert_eq!(s.hash_one("ab"), Seeded::default().hash_one("ab"), "one seed per process");
        assert_ne!(s.hash_one((1u32, 2u32)), s.hash_one((2u32, 1u32)));
        let mut a = s.build_hasher();
        a.write(b"ab");
        let mut b = s.build_hasher();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }
}
