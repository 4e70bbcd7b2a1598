//! A fast, non-cryptographic hasher for integer-keyed maps on
//! simulator hot paths.
//!
//! The standard library's default hasher (SipHash) is DoS-resistant
//! but costs tens of nanoseconds per lookup — noticeable when an
//! engine consults a version map on every action of millions of
//! committed transactions. Keys here are internal ids (`ObjectId`,
//! `TxnId`, `Timestamp`), never attacker-controlled, so a
//! multiply-xor hash is safe and several times faster.
//!
//! Use [`FastMap`] only for maps that are *never iterated* for
//! output: iteration order differs from SipHash maps, and the
//! harness promises byte-identical output across runs.

#[allow(
    clippy::disallowed_types,
    reason = "the one place the std map is named: `FastMap` swaps its hasher"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (a large odd constant with good
/// bit dispersion under multiplication).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: fold each word in with rotate-xor-multiply.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastState = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by the fast hasher. Never iterate one of these
/// for output — order is not the SipHash order the baselines froze.
#[allow(
    clippy::disallowed_types,
    reason = "the alias itself; SipHash is what it replaces"
)]
pub type FastMap<K, V> = HashMap<K, V, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, Timestamp, TxnId};

    #[test]
    fn map_roundtrips_typical_keys() {
        let mut m: FastMap<ObjectId, u64> = FastMap::default();
        for i in 0..1000 {
            m.insert(ObjectId(i), i * 2);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&ObjectId(i)), Some(&(i * 2)));
        }
        let mut t: FastMap<(ObjectId, Timestamp), TxnId> = FastMap::default();
        t.insert((ObjectId(7), Timestamp::new(3, crate::NodeId(1))), TxnId(9));
        assert_eq!(
            t.get(&(ObjectId(7), Timestamp::new(3, crate::NodeId(1)))),
            Some(&TxnId(9))
        );
        assert_eq!(t.get(&(ObjectId(7), Timestamp::ZERO)), None);
    }

    #[test]
    fn distinct_words_hash_distinctly() {
        // Not a distribution test — just a guard against a degenerate
        // implementation (e.g. ignoring input or constant output).
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FastHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let mut a = FastHasher::default();
        a.write(b"abcdefgh-tail1");
        let mut b = FastHasher::default();
        b.write(b"abcdefgh-tail2");
        assert_ne!(a.finish(), b.finish());
    }
}
