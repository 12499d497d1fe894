//! Shared content-hash primitives.
//!
//! Three independent subsystems grew their own copy of the same two
//! hash kernels: the `cpn-serve` document cache (FNV-1a over document
//! bytes), the `cpn-testkit` property harness (FNV-1a over property
//! names as the deterministic base seed), and the marking store's
//! per-entry mixing (the SplitMix64 finalizer). This module is the one
//! home for all of them, plus the 128-bit FNV-1a variant that backs
//! [`NetId`](crate::netid::NetId) — a cache key whose collisions would
//! silently alias *different* nets, so it gets the wide state.
//!
//! All functions are allocation-free, deterministic across platforms
//! and runs, and depend only on the input bytes — no `RandomState`, no
//! process seeds.

/// 64-bit FNV-1a offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// `FNV128_PRIME^k mod 2^128` for `k = 0..=8`. Absorbing a zero byte
/// only multiplies the state by the prime (xor with zero is the
/// identity), so `k` zero bytes multiply it by `FNV128_PRIME^k`.
const FNV128_POW: [u128; 9] = {
    let mut pow = [1u128; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV128_PRIME);
        k += 1;
    }
    pow
};

/// [`FNV128_POW`] modulo `2^64`: the prime's high part is `2^88`, so
/// modulo `2^64` the prime is `0x13b`.
const FNV128_LOW_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 0;
    while k < 9 {
        pow[k] = FNV128_POW[k] as u64;
        k += 1;
    }
    pow
};

/// How many low-order bytes of `v` are significant: the rest of its
/// little-endian bytes are zero.
#[inline]
fn live_bytes(v: u64) -> usize {
    8 - (v.leading_zeros() / 8) as usize
}

/// FNV-1a, 64-bit: tiny, allocation-free, good dispersion on text.
///
/// The seed hash of the testkit harness and the byte-level fast-path
/// key of the `cpn-serve` document cache.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// FNV-1a, 128-bit: the wide variant for keys where a collision would
/// alias two different values rather than merely cost a recompute.
#[must_use]
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish()
}

/// An incremental 128-bit FNV-1a hasher for streaming serializations
/// (the canonical-form hash of [`crate::netid`] feeds it field by
/// field without materializing the full byte string).
#[derive(Clone, Debug)]
pub struct Fnv128 {
    state: u128,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order. Its high zero bytes
    /// cost one multiply by a power of the prime, not one per byte.
    pub fn write_u64(&mut self, v: u64) {
        let live = live_bytes(v);
        self.write(&v.to_le_bytes()[..live]);
        self.state = self.state.wrapping_mul(FNV128_POW[8 - live]);
    }

    /// Absorbs a length-prefixed byte string, so `("ab", "c")` and
    /// `("a", "bc")` absorb differently.
    pub fn write_len_prefixed(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
    }

    /// The current hash state.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// The low 64 bits of [`Fnv128`], computed in 64-bit arithmetic.
///
/// The 128-bit prime is `2^88 + 0x13b`, so modulo `2^64` a step is
/// `low = (low ^ byte) * 0x13b`: the low half of the state never reads
/// the high half. Over any input, `finish` equals `Fnv128::finish`
/// truncated to `u64`, at a quarter of the multiply width. The
/// refinement signatures of [`crate::netid`] are this truncation.
#[derive(Clone, Debug)]
pub(crate) struct Fnv128Low {
    state: u64,
}

impl Fnv128Low {
    /// A fresh hasher at the low half of the FNV-1a-128 offset basis.
    pub(crate) fn new() -> Self {
        Fnv128Low {
            state: FNV128_OFFSET as u64,
        }
    }

    /// Absorbs a `u64` in little-endian byte order, as
    /// [`Fnv128::write_u64`] does.
    #[inline]
    pub(crate) fn write_u64(&mut self, v: u64) {
        let live = live_bytes(v);
        for &b in &v.to_le_bytes()[..live] {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV128_LOW_POW[1]);
        }
        self.state = self.state.wrapping_mul(FNV128_LOW_POW[8 - live]);
    }

    /// The low 64 bits of the FNV-1a-128 state.
    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

/// SplitMix64 finalizer: full avalanche on a single 64-bit word, so
/// summing outputs keeps high-bit entropy (the marking index tag reads
/// the high bits).
#[inline]
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv128_empty_is_offset_basis() {
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET);
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
    }

    #[test]
    fn fnv128_incremental_matches_oneshot() {
        let mut h = Fnv128::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_128(b"foobar"));
    }

    /// Values with every count of high zero bytes, and a few others.
    fn sample_u64s() -> Vec<u64> {
        let mut v: Vec<u64> = (0..64).map(|s| 1u64 << s).collect();
        v.extend((0..64).map(|s| u64::MAX >> s));
        v.extend([0, 0x5E9A_11AD, 0xC0, 0xBB, 0x0100_0000_0000_0000, 42]);
        v
    }

    #[test]
    fn write_u64_matches_its_bytes() {
        for &x in &sample_u64s() {
            let mut fast = Fnv128::new();
            fast.write_u64(x);
            fast.write_u64(x ^ 0xff);
            let mut bytes = Fnv128::new();
            bytes.write(&x.to_le_bytes());
            bytes.write(&(x ^ 0xff).to_le_bytes());
            assert_eq!(fast.finish(), bytes.finish(), "value {x:#x}");
        }
    }

    #[test]
    fn low_half_matches_the_truncated_wide_hash() {
        let mut low = Fnv128Low::new();
        let mut wide = Fnv128::new();
        assert_eq!(low.finish(), wide.finish() as u64);
        for &x in &sample_u64s() {
            low.write_u64(x);
            let mut bytes = wide.clone();
            bytes.write(&x.to_le_bytes());
            wide.write_u64(x);
            assert_eq!(wide.finish(), bytes.finish());
            assert_eq!(low.finish(), wide.finish() as u64, "value {x:#x}");
        }
    }

    #[test]
    fn length_prefix_separates_field_boundaries() {
        let mut a = Fnv128::new();
        a.write_len_prefixed(b"ab");
        a.write_len_prefixed(b"c");
        let mut b = Fnv128::new();
        b.write_len_prefixed(b"a");
        b.write_len_prefixed(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn mix64_avalanches() {
        // Adjacent inputs differ in about half the output bits.
        let d = (mix64(1) ^ mix64(2)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
        assert_eq!(mix64(42), mix64(42));
    }
}
