//! A from-scratch implementation of the MD5 message-digest algorithm
//! (RFC 1321).
//!
//! The paper hashes document URLs with MD5 both to pick a beacon ring
//! (`md5(url) mod R`) and to compute the intra-ring hash value
//! (`md5(url) mod IrHGen`). MD5 is *not* used for security here — only as a
//! well-mixed deterministic hash — so the known cryptographic weaknesses of
//! MD5 are irrelevant to the reproduction.
//!
//! # Examples
//!
//! ```
//! use cachecloud_types::md5::{md5, to_hex, digest_mod};
//!
//! assert_eq!(to_hex(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
//! assert_eq!(to_hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
//! // Reduce the digest modulo a hash generator, as the paper does.
//! let irh = digest_mod(b"/index.html", 1000);
//! assert!(irh < 1000);
//! ```

/// A 16-byte MD5 digest.
pub type Digest = [u8; 16];

/// Per-round shift amounts (RFC 1321 §3.4).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `K[i] = floor(2^32 * abs(sin(i + 1)))`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 hasher.
///
/// Feed data with [`Md5::update`] and finish with [`Md5::finalize`].
///
/// # Examples
///
/// ```
/// use cachecloud_types::md5::{Md5, to_hex};
///
/// let mut h = Md5::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(to_hex(&h.finalize()), "5eb63bbbe01eeed093cb22bb8f5acdc3");
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes so far.
    len: u64,
    /// Pending partial block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a hasher in the RFC 1321 initial state.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&rest[..64]);
            self.compress(&block);
            rest = &rest[64..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: a 0x80 byte, zeros up to byte 56 of a block, then the
        // 64-bit little-endian bit length. `update` leaves at most 63
        // pending bytes, so the 0x80 byte always fits; when it lands past
        // byte 55 the length spills into one more block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        if n >= 56 {
            self.buf[n + 1..].fill(0);
            let block = self.buf;
            self.compress(&block);
            self.buf[..56].fill(0);
        } else {
            self.buf[n + 1..56].fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, w) in m.iter_mut().enumerate() {
            *w = u32::from_le_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let sum = a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]);
            b = b.wrapping_add(sum.rotate_left(S[i]));
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

/// Computes the MD5 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// use cachecloud_types::md5::{md5, to_hex};
/// assert_eq!(to_hex(&md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
/// ```
pub fn md5(data: &[u8]) -> Digest {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// Renders a digest as a lowercase hexadecimal string.
pub fn to_hex(digest: &Digest) -> String {
    let mut s = String::with_capacity(32);
    for b in digest {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Interprets the first 8 bytes of the digest as a little-endian `u64`.
///
/// This is the well-mixed integer used for all `mod` reductions in the
/// hashing schemes.
pub fn digest_u64(digest: &Digest) -> u64 {
    u64::from_le_bytes(digest[..8].try_into().expect("digest has 16 bytes"))
}

/// One-shot `md5(data) mod modulus`, the reduction the paper applies to
/// document URLs.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn digest_mod(data: &[u8], modulus: u64) -> u64 {
    assert!(modulus > 0, "modulus must be positive");
    digest_u64(&md5(data)) % modulus
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(to_hex(&md5(input)), want, "input {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 7, 63, 64, 65, 128, 999, 1000] {
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), md5(&data), "split at {split}");
        }
    }

    #[test]
    fn many_small_updates() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Md5::new();
        for b in data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), md5(data));
    }

    #[test]
    fn exactly_one_block() {
        // 64-byte message exercises the "padding spills into a second
        // block" path.
        let data = [0x42u8; 64];
        assert_eq!(to_hex(&md5(&data)), to_hex(&md5(&data)));
        let mut h = Md5::new();
        h.update(&data);
        assert_eq!(h.finalize(), md5(&data));
    }

    #[test]
    fn fifty_five_and_fifty_six_bytes() {
        // 55 bytes: padding fits in the same block. 56: spills over.
        for n in [55usize, 56, 57, 119, 120, 121] {
            let data = vec![7u8; n];
            let mut h = Md5::new();
            h.update(&data);
            assert_eq!(h.finalize(), md5(&data), "len {n}");
        }
    }

    /// Known answers at the padding boundaries: 55 bytes leave room for
    /// the length in the last block, 56 and 63 push it into one more, 64
    /// pads a whole extra block, and 119 is the two-block case of 55.
    /// Message byte `i` is `(7i + 3) mod 256`.
    #[test]
    fn padding_boundary_vectors() {
        let cases = [
            (55usize, "52c0e574e1198de5fe3f8f11440dcb1b"),
            (56, "46c9907fc908ee68b1e7b8e71286a518"),
            (63, "a62f6d59e837867693f042f5b8f5a236"),
            (64, "7160b8fb5e9e4023d549c3971fbaeead"),
            (119, "e84905d4214f4d1ca56c2cdcc152b143"),
        ];
        for (n, want) in cases {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(to_hex(&md5(&data)), want, "len {n}");
        }
    }

    #[test]
    fn digest_mod_in_range() {
        for m in [1u64, 2, 10, 1000, 1 << 40] {
            for s in ["", "a", "/doc/1", "/doc/2"] {
                assert!(digest_mod(s.as_bytes(), m) < m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn digest_mod_zero_panics() {
        let _ = digest_mod(b"x", 0);
    }

    #[test]
    fn digest_u64_is_le_prefix() {
        let d = md5(b"abc");
        let expect = u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]);
        assert_eq!(digest_u64(&d), expect);
    }
}
