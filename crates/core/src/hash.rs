//! Stable content hashing for specs and data fingerprints.
//!
//! The campaign engine addresses cached results by the hash of a unit's
//! canonical spec, so two properties matter here:
//!
//! * **Stability** — the same logical spec must hash identically across
//!   runs, platforms, and process restarts. Both hashes below are fixed
//!   published algorithms (SHA-256, FNV-1a 64) over explicit byte
//!   sequences; nothing depends on pointer values, `HashMap` iteration
//!   order, or the std `Hasher` (whose output is unspecified across
//!   releases).
//! * **Sensitivity** — any change to the spec must change the hash.
//!   SHA-256 provides that for the spec itself; the cheap FNV digest is
//!   used only to fingerprint bulk matrix data, where accidental
//!   collision odds (~2⁻⁶⁴) are acceptable for cache keying alongside
//!   the matrix's name.

/// SHA-256 of `bytes`, as a lowercase hex string.
pub fn sha256_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut hex = [0u8; 64];
    for (pair, byte) in hex.chunks_exact_mut(2).zip(sha256(bytes)) {
        pair[0] = HEX[(byte >> 4) as usize];
        pair[1] = HEX[(byte & 0xf) as usize];
    }
    String::from_utf8_lossy(&hex).into_owned()
}

/// SHA-256 (FIPS 180-4) of `bytes`.
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    sha256_with(compress_fn(), bytes)
}

/// Whole 64-byte blocks are compressed straight from `bytes`; only the
/// tail (under 64 bytes) is copied, into the padded final block or two.
fn sha256_with(compress: Compress, bytes: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let (blocks, rest) = bytes.split_at(bytes.len() - bytes.len() % 64);
    compress(&mut state, blocks);

    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..tail_len]);

    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Folds `blocks` (a whole number of 64-byte blocks) into `state`.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The compress function for this machine: the x86 SHA extensions where
/// the CPU reports them, the portable one everywhere else. Both give the
/// same state for the same input (`tests::both_compress_functions_*`).
fn compress_fn() -> Compress {
    #[cfg(target_arch = "x86_64")]
    if let Some(compress) = x86::compress_sha_ni() {
        return compress;
    }
    compress_scalar
}

/// Portable compress: a rolling 16-word message schedule and eight
/// rounds per loop trip with the working variables renamed instead of
/// moved.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident,
             $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                let i: usize = $i;
                if i >= 16 {
                    let (w15, w2) = (w[(i + 1) & 15], w[(i + 14) & 15]);
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[i & 15] = w[i & 15]
                        .wrapping_add(s0)
                        .wrapping_add(w[(i + 9) & 15])
                        .wrapping_add(s1);
                }
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i & 15]);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0.wrapping_add(maj));
            };
        }
        for i in (0..64).step_by(8) {
            round!(a, b, c, d, e, f, g, h, i);
            round!(h, a, b, c, d, e, f, g, i + 1);
            round!(g, h, a, b, c, d, e, f, i + 2);
            round!(f, g, h, a, b, c, d, e, i + 3);
            round!(e, f, g, h, a, b, c, d, i + 4);
            round!(d, e, f, g, h, a, b, c, i + 5);
            round!(c, d, e, f, g, h, a, b, i + 6);
            round!(b, c, d, e, f, g, h, a, i + 7);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The workspace's one compute-side `unsafe`: SHA-256 compress on the
/// x86 SHA extensions — 16 µs against the portable function's 75 µs for
/// the 24 KB report object every cache hit re-verifies.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::{Compress, K};

    /// The SHA-extension compress, if this CPU has the instructions it
    /// uses — the only way to reach it.
    pub(super) fn compress_sha_ni() -> Option<Compress> {
        let detected = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1");
        detected.then_some(detected_sha_ni as Compress)
    }

    fn detected_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: this function is private and handed out only by
        // `compress_sha_ni`, after the CPU reported every feature `sha_ni`
        // is compiled with.
        unsafe { sha_ni(state, blocks) }
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY (every load and store below): each pointer is derived
        // from a live reference — `state` (32 bytes, two vectors), `K`
        // (256 bytes, vector `i < 16`) or a 64-byte `chunks_exact` block
        // (four vectors) — and is read or written 16 bytes at a time
        // inside that reference's extent; the `u` forms need no alignment.
        let state_ptr = state.as_mut_ptr().cast::<__m128i>();
        let dcba = _mm_loadu_si128(state_ptr);
        let hgfe = _mm_loadu_si128(state_ptr.add(1));
        // The round instruction wants the state as (a,b,e,f), (c,d,g,h).
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        let big_endian = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let block_ptr = block.as_ptr().cast::<__m128i>();
            // Four message words per vector; `w[j % 4]` holds words
            // `4j..4j + 4` of the schedule.
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr), big_endian),
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(1)), big_endian),
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(2)), big_endian),
                _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(3)), big_endian),
            ];
            for i in 0..16 {
                if i >= 4 {
                    let partial = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
                        _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4),
                    );
                    w[i % 4] = _mm_sha256msg2_epu32(partial, w[(i + 3) % 4]);
                }
                let k = _mm_loadu_si128(K.as_ptr().cast::<__m128i>().add(i));
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// Incremental FNV-1a 64-bit digest, for cheap fingerprints of bulk
/// numeric data (matrix arrays, right-hand sides).
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// Starts a digest at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs a `u64` as little-endian bytes.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorbs an `f64` via its IEEE-754 bit pattern (so `-0.0 ≠ 0.0`
    /// and NaNs hash by payload — bitwise identity, not numeric).
    pub fn update_f64(&mut self, v: f64) {
        self.update(&v.to_bits().to_le_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Every compress function this machine can run, by name. Says so on
    /// the real stderr (not the captured one) when the SHA extensions are
    /// missing, so a run that never tested them shows it.
    fn compress_functions() -> Vec<(&'static str, Compress)> {
        let mut all: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if let Some(sha_ni) = x86::compress_sha_ni() {
            all.push(("sha-ni", sha_ni));
        }
        if all.len() == 1 {
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "SKIPPED: no x86 SHA extensions here; only the scalar compress was tested"
            );
        }
        all
    }

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The textbook form (whole padded copy, 64-word schedule, rolled
    /// rounds) both compress functions are held to.
    fn sha256_reference(bytes: &[u8]) -> [u8; 32] {
        let mut h = H0;
        let mut msg = bytes.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(bytes.len() as u64 * 8).to_be_bytes());
        for chunk in msg.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in chunk.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let mut v = h;
            for i in 0..64 {
                let [a, b, c, d, e, f, g, hh] = v;
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                v = [
                    t1.wrapping_add(s0.wrapping_add(maj)),
                    a,
                    b,
                    c,
                    d.wrapping_add(t1),
                    e,
                    f,
                    g,
                ];
            }
            for (s, x) in h.iter_mut().zip(v) {
                *s = s.wrapping_add(x);
            }
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn sha256_matches_published_vectors() {
        // FIPS 180-4 / NIST example vectors, through the public entry
        // points and through each compress function by name.
        let million = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (message, digest) in vectors {
            assert_eq!(sha256_hex(message), digest);
            assert_eq!(hex(sha256(message)), digest);
            assert_eq!(hex(sha256_reference(message)), digest);
            for (name, compress) in compress_functions() {
                assert_eq!(hex(sha256_with(compress, message)), digest, "{name}");
            }
        }
    }

    #[test]
    fn sha256_handles_padding_boundaries() {
        // Every length across the one-block / two-block tail boundary
        // (55 | 56) and several whole blocks, each compress function
        // against the textbook form.
        let data: Vec<u8> = (0..=300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=300 {
            let want = sha256_reference(&data[..len]);
            for (name, compress) in compress_functions() {
                assert_eq!(
                    sha256_with(compress, &data[..len]),
                    want,
                    "{name}, length {len}"
                );
            }
            assert_eq!(sha256_hex(&data[..len]), hex(want));
            if len > 0 {
                let mut flipped = data[..len].to_vec();
                flipped[len / 2] ^= 0x20;
                assert_ne!(sha256(&flipped), want, "length {len}");
            }
        }
    }

    #[test]
    fn both_compress_functions_agree_on_random_buffers() {
        let mut rng = StdRng::seed_from_u64(0x5eed_2303);
        for case in 0..64 {
            let len = match case {
                0 => 1 << 20,
                _ => rng.random_range(0..1usize << 20) >> rng.random_range(0..12u32),
            };
            // One byte in, so the message starts unaligned.
            let buffer: Vec<u8> = (0..len + 1).map(|_| rng.random::<u32>() as u8).collect();
            let message = &buffer[1..];
            let digests: Vec<[u8; 32]> = compress_functions()
                .into_iter()
                .map(|(_, compress)| sha256_with(compress, message))
                .collect();
            assert!(
                digests.windows(2).all(|pair| pair[0] == pair[1]),
                "case {case}"
            );
            assert_eq!(sha256(message), digests[0]);
            if len <= 4096 {
                assert_eq!(sha256_reference(message), digests[0], "case {case}");
            }
        }
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        let mut a = Fnv1a::new();
        a.update(b"hello");
        // Published FNV-1a 64 value for "hello".
        assert_eq!(a.finish(), 0xa430d84680aabd0b);

        let mut b = Fnv1a::new();
        b.update_f64(1.0);
        let mut c = Fnv1a::new();
        c.update_f64(1.0 + f64::EPSILON);
        assert_ne!(b.finish(), c.finish());

        let mut z1 = Fnv1a::new();
        z1.update_f64(0.0);
        let mut z2 = Fnv1a::new();
        z2.update_f64(-0.0);
        assert_ne!(z1.finish(), z2.finish());
    }
}
