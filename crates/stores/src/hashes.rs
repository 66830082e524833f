//! Hash functions used by the client-side routing layers.
//!
//! Implemented from their specifications because the workspace is
//! self-contained:
//!
//! * [`murmur2_64a`] — MurmurHash64A, the default key hasher of the Jedis
//!   sharding library (§4.4/§5.1: the paper tried "both supported hashing
//!   algorithms in Jedis, MurMurHash and MD5").
//! * [`md5`] — RFC 1321, used by Cassandra's `RandomPartitioner` to place
//!   keys on the token ring, and Jedis's alternative hasher.
//! * [`fnv1a64`] — cheap general-purpose hash for internal sharding
//!   (the one in `apm_core::snap`, re-exported).

/// MurmurHash64A (Austin Appleby), seed-parameterised.
pub fn murmur2_64a(data: &[u8], seed: u64) -> u64 {
    const M: u64 = 0xc6a4_a793_5bd1_e995;
    const R: u32 = 47;
    let mut h: u64 = seed ^ (data.len() as u64).wrapping_mul(M);
    let chunks = data.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        let mut k = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        k = k.wrapping_mul(M);
        k ^= k >> R;
        k = k.wrapping_mul(M);
        h ^= k;
        h = h.wrapping_mul(M);
    }
    for (i, &b) in tail.iter().enumerate() {
        h ^= u64::from(b) << (8 * i);
    }
    if !tail.is_empty() {
        h = h.wrapping_mul(M);
    }
    h ^= h >> R;
    h = h.wrapping_mul(M);
    h ^= h >> R;
    h
}

pub use apm_core::snap::fnv1a64;

/// One MD5 compression: folds a 64-byte block into `state`. The four
/// 16-round phases are four fixed-trip loops, so the round function and
/// the message-word index of every round are compile-time constants.
fn md5_compress(state: &mut [u32; 4], block: &[u8; 64]) {
    const S: [[u32; 4]; 4] = [
        [7, 12, 17, 22],
        [5, 9, 14, 20],
        [4, 11, 16, 23],
        [6, 10, 15, 21],
    ];
    const K: [u32; 64] = [
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
        0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
        0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
        0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
        0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
        0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
        0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
        0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
        0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
        0xeb86d391,
    ];
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    // One round: `f` is the phase's mixing function of (b, c, d), `g`
    // its message-word index, `i` the round within the phase.
    macro_rules! round {
        ($phase:expr, $i:expr, $f:expr, $g:expr) => {{
            let sum = a
                .wrapping_add($f)
                .wrapping_add(K[16 * $phase + $i])
                .wrapping_add(m[$g % 16]);
            (a, d, c) = (d, c, b);
            b = b.wrapping_add(sum.rotate_left(S[$phase][$i % 4]));
        }};
    }
    for i in 0..16 {
        round!(0, i, (b & c) | (!b & d), i);
    }
    for i in 0..16 {
        round!(1, i, (d & b) | (!d & c), 5 * i + 1);
    }
    for i in 0..16 {
        round!(2, i, b ^ c ^ d, 3 * i + 5);
    }
    for i in 0..16 {
        round!(3, i, c ^ (b | !d), 7 * i);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// MD5 (RFC 1321). Returns the 16-byte digest.
pub fn md5(message: &[u8]) -> [u8; 16] {
    let mut state = [0x6745_2301u32, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    let blocks = message.chunks_exact(64);
    let tail = blocks.remainder();
    for block in blocks {
        md5_compress(&mut state, block.try_into().expect("64-byte chunk"));
    }
    // Padding: 0x80, zeros, 64-bit little-endian bit length. It shares
    // the tail's block unless the tail leaves fewer than 9 bytes free.
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    if tail.len() >= 56 {
        md5_compress(&mut state, &block);
        block = [0u8; 64];
    }
    let bit_len = (message.len() as u64).wrapping_mul(8);
    block[56..].copy_from_slice(&bit_len.to_le_bytes());
    md5_compress(&mut state, &block);
    let mut digest = [0u8; 16];
    for (out, word) in digest.chunks_exact_mut(4).zip(state) {
        out.copy_from_slice(&word.to_le_bytes());
    }
    digest
}

/// MD5 digest folded to a u128 (big-endian interpretation, as Cassandra's
/// `RandomPartitioner` does before taking `abs mod 2^127`).
pub fn md5_u128(message: &[u8]) -> u128 {
    u128::from_be_bytes(md5(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn md5_rfc1321_test_vectors() {
        // The reference vectors from RFC 1321 appendix A.5.
        assert_eq!(hex(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(&md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            hex(&md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            hex(&md5(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hex(&md5(
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
            )),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            hex(&md5(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn md5_handles_block_boundary_lengths() {
        // `head -c N /dev/zero | tr '\0' x | md5sum`: 55 is the longest
        // tail whose padding fits its own block, 56..=63 spill the length
        // into a second block, 64 has an empty tail, 119/120 repeat the
        // edge one block later.
        for (len, digest) in [
            (55usize, "04364420e25c512fd958a70738aa8f72"),
            (56, "668a72d5ba17f08e62dabcafad6db14b"),
            (63, "7dc2ca208106a2f703567bdff99d8981"),
            (64, "c1bb4f81d892b2d57947682aeb252456"),
            (65, "1bc932052302d074bdec39795fe00cf6"),
            (119, "ab347a5f68c8a443cfcddc633f12c24f"),
            (120, "fb98667f98096de92620b64f46e1c5b5"),
        ] {
            assert_eq!(hex(&md5(&vec![b'x'; len])), digest, "length {len}");
        }
    }

    #[test]
    fn murmur_is_deterministic_and_spreads() {
        let a = murmur2_64a(b"SHARD-0-NODE-1", 0x1234ABCD);
        let b = murmur2_64a(b"SHARD-0-NODE-1", 0x1234ABCD);
        let c = murmur2_64a(b"SHARD-0-NODE-2", 0x1234ABCD);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Spread check: bucket 10k hashed keys into 16 bins.
        let mut bins = [0u32; 16];
        for i in 0..10_000u64 {
            let h = murmur2_64a(format!("key{i}").as_bytes(), 0);
            bins[(h % 16) as usize] += 1;
        }
        assert!(bins.iter().all(|&b| (400..900).contains(&b)), "{bins:?}");
    }

    #[test]
    fn murmur_tail_lengths_all_distinct() {
        let hashes: Vec<u64> = (0..8).map(|n| murmur2_64a(&vec![7u8; n], 0)).collect();
        // Cardinality check only, never iterated. audit:allow(hash-order)
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len());
    }

    #[test]
    fn md5_u128_is_big_endian_fold() {
        let d = md5(b"abc");
        assert_eq!(md5_u128(b"abc").to_be_bytes(), d);
    }
}
