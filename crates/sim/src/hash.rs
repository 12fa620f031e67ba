//! A stable, platform-independent hasher for trace fingerprinting.
//!
//! [`std::collections::hash_map::DefaultHasher`] is explicitly allowed to
//! change between Rust releases, so determinism checks ("the same seed
//! produces the identical trace") need their own hash with a pinned
//! algorithm. [`StableHasher`] is 64-bit FNV-1a: tiny, allocation-free,
//! and byte-for-byte reproducible everywhere.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`: the multiplier that stands for `k`
/// byte steps whose byte is zero (`(s ^ 0) * P = s * P`).
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// A 64-bit FNV-1a [`Hasher`] with a stable, documented algorithm.
///
/// Feed it anything that implements [`std::hash::Hash`]; equal inputs
/// produce equal outputs on every platform and toolchain.
///
/// # Cost model
///
/// Byte-serial FNV-1a costs one xor and one multiply per byte, in one
/// serial chain. The integer writes (`write_u8` … `write_u64`,
/// `write_usize` and the signed variants) instead cost one multiply per
/// *significant* byte: the bytes up to the last non-zero one, in the
/// order `write(&i.to_ne_bytes())` feeds them. The last significant
/// byte and the zero bytes after it take a single multiply by a
/// precomputed `FNV_PRIME^k`, so a zero value costs one multiply. This
/// matters because derived `Hash` records are mostly small ids, enum
/// discriminants and timestamps whose high bytes are zero.
///
/// The result is bit-identical to the byte loop, because a zero byte's
/// step is `(s ^ 0) * P = s * P` and wrapping multiplication is
/// associative modulo 2⁶⁴: `k` such steps are one multiply by `P^k`.
///
/// # Examples
///
/// ```
/// use asym_sim::StableHasher;
/// use std::hash::{Hash, Hasher};
///
/// let mut a = StableHasher::new();
/// let mut b = StableHasher::new();
/// (1u64, "trace").hash(&mut a);
/// (1u64, "trace").hash(&mut b);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// Creates a hasher at the standard FNV offset basis.
    pub const fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Folds the `N ≤ 8` native-endian bytes of one integer, exactly as
    /// [`Hasher::write`] would, with the trailing zero bytes collapsed
    /// into one multiply (see the cost model on [`StableHasher`]).
    #[inline]
    fn write_ne<const N: usize>(&mut self, bytes: [u8; N]) {
        let mut word = [0u8; 8];
        word[..N].copy_from_slice(&bytes);
        // Little-endian load: the first byte the loop would feed is the
        // low byte, so the trailing zero bytes are the leading zero bits.
        let mut rest = u64::from_le_bytes(word);
        let significant = (u64::BITS - rest.leading_zeros()).div_ceil(8) as usize;
        let last = significant.saturating_sub(1);
        let mut state = self.state;
        for _ in 0..last {
            state = (state ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        // `rest` now holds the last significant byte (0 for a zero value).
        self.state = (state ^ rest).wrapping_mul(PRIME_POWERS[N - last]);
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Implements each named [`Hasher`] integer write through
/// `StableHasher::write_ne` on the value's native-endian bytes, the
/// bytes the default implementation passes to `write`.
macro_rules! write_integers {
    ($($method:ident: $int:ty),* $(,)?) => {$(
        #[inline]
        fn $method(&mut self, i: $int) {
            self.write_ne(i.to_ne_bytes());
        }
    )*};
}

// Every method is `#[inline]`: derived `Hash` impls in other crates
// then keep the state in a register instead of calling out per field.
impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    write_integers! {
        write_u8: u8,
        write_u16: u16,
        write_u32: u32,
        write_u64: u64,
        write_usize: usize,
        write_i8: i8,
        write_i16: i16,
        write_i32: i32,
        write_i64: i64,
        write_isize: isize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use std::hash::Hash;

    #[test]
    fn known_vectors() {
        // FNV-1a test vectors from the reference implementation.
        let hash = |bytes: &[u8]| {
            let mut h = StableHasher::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hash_trait_integration_is_deterministic() {
        let digest = |v: &[(u64, bool)]| {
            let mut h = StableHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let data = vec![(1, true), (2, false)];
        assert_eq!(digest(&data), digest(&data));
        assert_ne!(digest(&data), digest(&[(1, true)]));
    }

    /// Asserts that every integer write of `v` (truncated to each width,
    /// unsigned and signed) equals the plain byte loop over the same
    /// native-endian bytes, from a non-trivial starting state.
    fn assert_word_path_exact(v: u64) {
        let check = |width: &str, bytes: &[u8], word: &dyn Fn(&mut StableHasher)| {
            let mut expected = StableHasher::new();
            expected.write(b"prefix");
            let mut got = expected;
            expected.write(bytes);
            word(&mut got);
            assert_eq!(got.finish(), expected.finish(), "{width} {v:#x}");
        };
        check("u8", &(v as u8).to_ne_bytes(), &|h| h.write_u8(v as u8));
        check("i8", &(v as i8).to_ne_bytes(), &|h| h.write_i8(v as i8));
        check("u16", &(v as u16).to_ne_bytes(), &|h| h.write_u16(v as u16));
        check("i16", &(v as i16).to_ne_bytes(), &|h| h.write_i16(v as i16));
        check("u32", &(v as u32).to_ne_bytes(), &|h| h.write_u32(v as u32));
        check("i32", &(v as i32).to_ne_bytes(), &|h| h.write_i32(v as i32));
        check("u64", &v.to_ne_bytes(), &|h| h.write_u64(v));
        check("i64", &(v as i64).to_ne_bytes(), &|h| h.write_i64(v as i64));
        let (u, i) = (v as usize, v as isize);
        check("usize", &u.to_ne_bytes(), &|h| h.write_usize(u));
        check("isize", &i.to_ne_bytes(), &|h| h.write_isize(i));
    }

    #[test]
    fn word_path_matches_byte_loop_on_edge_values() {
        let mut values = vec![
            0,
            1,
            0xff,
            0x100,
            0x0100_0001,
            0x0001_0000_0000_0100,
            0xff00_0000_0000_00ff,
            u64::MAX,
        ];
        for k in 1..64 {
            values.push((1u64 << k) - 1);
            values.push(1u64 << k);
        }
        for v in values {
            assert_word_path_exact(v);
        }
    }

    #[test]
    fn word_path_matches_byte_loop_on_random_values() {
        let mut rng = Rng::new(0x5eed);
        for _ in 0..10_000 {
            // Shift to a random byte length so short values (the common
            // case in trace records) are as likely as full-width ones.
            let zero_bytes = rng.index(9) as u32;
            let v = rng.next_u64().checked_shr(8 * zero_bytes).unwrap_or(0);
            assert_word_path_exact(v);
        }
    }
}
